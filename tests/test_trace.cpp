// Tests for packet-trace recording, serialization and replay.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/serialize.hpp"
#include "gpgpu/workload.hpp"
#include "noc/trace.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

TraceRecord R(Cycle cycle, NodeId src, NodeId dst, PacketType type,
              int flits) {
  TraceRecord r;
  r.cycle = cycle;
  r.src = src;
  r.dst = dst;
  r.type = type;
  r.num_flits = flits;
  return r;
}

TEST(TraceTest, CsvRoundTrip) {
  TraceWriter writer;
  writer.Append(R(0, 1, 5, PacketType::kReadRequest, 1));
  writer.Append(R(3, 2, 6, PacketType::kWriteRequest, 5));
  writer.Append(R(3, 5, 1, PacketType::kReadReply, 5));
  writer.Append(R(9, 6, 2, PacketType::kWriteReply, 1));

  const std::string csv = writer.ToCsv();
  const auto parsed = TraceReader::FromCsv(csv);
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed, writer.records());
}

TEST(TraceTest, CsvCarriesAddresses) {
  TraceWriter writer;
  TraceRecord r = R(1, 0, 3, PacketType::kReadRequest, 1);
  r.addr = 0xDEADBEEF;
  writer.Append(r);
  const auto parsed = TraceReader::FromCsv(writer.ToCsv());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].addr, 0xDEADBEEFu);
}

TEST(TraceTest, MalformedCsvThrows) {
  EXPECT_THROW(TraceReader::FromCsv("not,a,trace\n"), std::invalid_argument);
  EXPECT_THROW(TraceReader::FromCsv("cycle,src,dst,type,flits,addr\n1,2\n"),
               std::invalid_argument);
  EXPECT_THROW(
      TraceReader::FromCsv("cycle,src,dst,type,flits,addr\n1,0,1,9,1,0\n"),
      std::invalid_argument)
      << "invalid packet type";
  EXPECT_THROW(
      TraceReader::FromCsv(
          "cycle,src,dst,type,flits,addr\n5,0,1,0,1,0\n1,0,1,0,1,0\n"),
      std::invalid_argument)
      << "unsorted cycles";
}

TEST(TraceTest, FileRoundTrip) {
  TraceWriter writer;
  writer.Append(R(0, 0, 15, PacketType::kReadRequest, 1));
  writer.Append(R(7, 15, 0, PacketType::kReadReply, 5));
  const std::string path = "/tmp/gnoc_trace_test.csv";
  writer.WriteFile(path);
  const auto parsed = TraceReader::FromFile(path);
  EXPECT_EQ(parsed, writer.records());
  EXPECT_THROW(TraceReader::FromFile("/nonexistent/dir/trace.csv"),
               std::runtime_error);
}

TEST(TraceTest, GpuSystemRecordsItsTraffic) {
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.record_trace = true;
  GpuSystem gpu(cfg, FindWorkload("HST"));
  EXPECT_NE(gpu.trace(), nullptr);
  gpu.Run(/*warmup=*/500, /*measure=*/2000);
  const TraceWriter& trace = *gpu.trace();
  EXPECT_GT(trace.size(), 100u);
  // Records must be sorted and contain both classes.
  bool has_request = false;
  bool has_reply = false;
  for (std::size_t i = 0; i < trace.records().size(); ++i) {
    if (i > 0) {
      EXPECT_LE(trace.records()[i - 1].cycle, trace.records()[i].cycle);
    }
    if (ClassOf(trace.records()[i].type) == TrafficClass::kRequest) {
      has_request = true;
    } else {
      has_reply = true;
    }
  }
  EXPECT_TRUE(has_request);
  EXPECT_TRUE(has_reply);
}

TEST(TraceTest, RecordingOffByDefault) {
  GpuConfig cfg = GpuConfig::Baseline();
  GpuSystem gpu(cfg, FindWorkload("HST"));
  EXPECT_EQ(gpu.trace(), nullptr);
}

TEST(TraceReplayTest, ReplaysAllPacketsInOrder) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  Network net(cfg);

  struct Collect : PacketSink {
    bool Accept(const Packet& p, Cycle) override {
      got.push_back(p);
      return true;
    }
    std::vector<Packet> got;
  } sink;
  for (NodeId n = 0; n < 16; ++n) net.SetSink(n, &sink);

  std::vector<TraceRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(R(static_cast<Cycle>(i * 2), static_cast<NodeId>(i % 8),
                        static_cast<NodeId>(15 - i % 8),
                        i % 2 == 0 ? PacketType::kReadRequest
                                   : PacketType::kReadReply,
                        i % 2 == 0 ? 1 : 5));
  }
  TraceReplay replay(net, records);
  for (int c = 0; c < 600 && !(replay.Done() && net.FlitsInFlight() == 0);
       ++c) {
    replay.Tick();
    net.Tick();
  }
  EXPECT_TRUE(replay.Done());
  EXPECT_EQ(replay.injected(), 30u);
  EXPECT_EQ(sink.got.size(), 30u);
}

TEST(TraceReplayTest, RespectsBackpressure) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.inject_queue_capacity = 2;
  cfg.eject_capacity = 4;
  cfg.deadlock_threshold = 1000000;
  Network net(cfg);
  struct Refuse : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } closed;
  for (NodeId n = 0; n < 16; ++n) net.SetSink(n, &closed);

  // All records from one source at cycle 0: the closed sink bounds total
  // downstream buffering, so the replay must stall rather than drop.
  std::vector<TraceRecord> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(R(0, 0, 15, PacketType::kReadRequest, 5));
  }
  TraceReplay replay(net, records);
  for (int c = 0; c < 1000; ++c) {
    replay.Tick();
    net.Tick();
  }
  EXPECT_FALSE(replay.Done());
  EXPECT_GT(replay.remaining(), 0u);
  EXPECT_LT(replay.injected(), 40u);
}

// TraceReplay refuses, naming the record, what the network cannot carry:
// a source or destination that is not one of its tiles (a flit's RC reads
// the route LUT at its destination tile) and a flit count past the 16-bit
// packet size. The first record is valid; the second is the case.
std::string ReplayError(const TraceRecord& second) {
  NetworkConfig cfg;  // 8x8, as examples/trace_replay builds
  Network net(cfg);
  try {
    TraceReplay replay(net, {R(0, 0, 63, PacketType::kReadRequest, 1),
                             second});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TraceReplayTest, RefusesADestinationOffTheGrid) {
  EXPECT_EQ(ReplayError(R(3, 63, 0, PacketType::kReadReply, 5)), "");
  EXPECT_EQ(ReplayError(R(3, 0, 9999, PacketType::kReadRequest, 1)),
            "trace record 1 (cycle 3, src 0, dst 9999, 1 flits): dst is "
            "not a tile of the 64-tile network");
  EXPECT_NE(ReplayError(R(3, 0, 64, PacketType::kReadRequest, 1))
                .find("dst is not a tile"),
            std::string::npos);
  EXPECT_NE(ReplayError(R(3, 0, -1, PacketType::kReadRequest, 1))
                .find("dst is not a tile"),
            std::string::npos);
}

TEST(TraceReplayTest, RefusesASourceOffTheGrid) {
  EXPECT_EQ(ReplayError(R(3, 64, 0, PacketType::kReadRequest, 1)),
            "trace record 1 (cycle 3, src 64, dst 0, 1 flits): src is not "
            "a tile of the 64-tile network");
  EXPECT_NE(ReplayError(R(3, -5, 0, PacketType::kReadRequest, 1))
                .find("src is not a tile"),
            std::string::npos);
}

TEST(TraceReplayTest, RefusesAFlitCountPastThePacketSize) {
  EXPECT_EQ(ReplayError(R(3, 1, 2, PacketType::kWriteRequest, 65535)), "");
  EXPECT_EQ(ReplayError(R(3, 1, 2, PacketType::kWriteRequest, 65536)),
            "trace record 1 (cycle 3, src 1, dst 2, 65536 flits): the flit "
            "count is outside [1, 65535]");
  EXPECT_NE(ReplayError(R(3, 1, 2, PacketType::kWriteRequest, 0))
                .find("outside [1, 65535]"),
            std::string::npos);
}

TEST(TraceReplayTest, RecordAndReplayMatchesTrafficVolume) {
  // End-to-end: record a GPGPU run, replay the trace on a bare network of
  // the same shape, and verify the flit volume matches.
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.record_trace = true;
  GpuSystem gpu(cfg, FindWorkload("LPS"));
  gpu.Run(/*warmup=*/0, /*measure=*/3000);
  const auto& records = gpu.trace()->records();
  ASSERT_GT(records.size(), 10u);
  std::uint64_t trace_flits = 0;
  for (const auto& r : records) {
    trace_flits += static_cast<std::uint64_t>(r.num_flits);
  }

  NetworkConfig ncfg;
  Network net(ncfg);
  struct AcceptAll : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  TraceReplay replay(net, records);
  for (int c = 0; c < 30000 && !(replay.Done() && net.FlitsInFlight() == 0);
       ++c) {
    replay.Tick();
    net.Tick();
  }
  ASSERT_TRUE(replay.Done());
  const auto s = net.Summarize();
  EXPECT_EQ(s.flits_injected[0] + s.flits_injected[1], trace_flits);
}

// TraceWriter::Load refuses a record count the payload cannot hold before
// it sizes anything (it used to reserve() whatever the file said).
TEST(TraceTest, LoadRefusesRecordCountPastThePayload) {
  TraceWriter writer;
  writer.Append(TraceRecord{5, 1, 2, PacketType::kReadRequest, 1, 64});
  Serializer s;
  writer.Save(s);
  std::string bytes = s.bytes();
  bytes[5] = 1;  // record count 1 + 2^40
  TraceWriter out;
  Deserializer d(bytes);
  EXPECT_THROW(out.Load(d), SerializeError);
}

}  // namespace
}  // namespace gnoc
