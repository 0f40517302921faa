#include "noc/trace.hpp"

#include <cassert>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gnoc {

namespace {
constexpr char kHeader[] = "cycle,src,dst,type,flits,addr";
}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

void TraceWriter::Append(const Packet& packet, Cycle now) {
  Append({now, packet.src, packet.dst, packet.type, packet.num_flits,
          packet.addr});
}

void TraceWriter::Append(const TraceRecord& record) {
  assert(records_.empty() || records_.back().cycle <= record.cycle);
  records_.push_back(record);
}

std::string TraceWriter::ToCsv() const {
  std::ostringstream oss;
  oss << kHeader << '\n';
  for (const TraceRecord& r : records_) {
    oss << r.cycle << ',' << r.src << ',' << r.dst << ','
        << static_cast<int>(r.type) << ',' << r.num_flits << ',' << r.addr
        << '\n';
  }
  return oss.str();
}

void TraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out << ToCsv();
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

void TraceWriter::Save(Serializer& s) const { IoSeq(s, records_); }
void TraceWriter::Load(Deserializer& d) { IoSeq(d, records_); }

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

std::vector<TraceRecord> TraceReader::FromCsv(const std::string& csv) {
  std::istringstream lines(csv);
  std::string line;
  if (!std::getline(lines, line) || line != kHeader) {
    throw std::invalid_argument("trace CSV missing header '" +
                                std::string(kHeader) + "'");
  }
  std::vector<TraceRecord> records;
  std::size_t line_no = 1;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    TraceRecord r;
    char c1 = 0, c2 = 0, c3 = 0, c4 = 0, c5 = 0;
    long long cycle = 0, src = 0, dst = 0, type = 0, flits = 0;
    unsigned long long addr = 0;
    fields >> cycle >> c1 >> src >> c2 >> dst >> c3 >> type >> c4 >> flits >>
        c5 >> addr;
    if (fields.fail() || c1 != ',' || c2 != ',' || c3 != ',' || c4 != ',' ||
        c5 != ',') {
      throw std::invalid_argument("malformed trace line " +
                                  std::to_string(line_no) + ": '" + line + "'");
    }
    if (cycle < 0 || src < 0 || dst < 0 || type < 0 ||
        type >= kNumPacketTypes || flits < 1) {
      throw std::invalid_argument("invalid values on trace line " +
                                  std::to_string(line_no));
    }
    r.cycle = static_cast<Cycle>(cycle);
    r.src = static_cast<NodeId>(src);
    r.dst = static_cast<NodeId>(dst);
    r.type = static_cast<PacketType>(type);
    r.num_flits = static_cast<int>(flits);
    r.addr = addr;
    if (!records.empty() && records.back().cycle > r.cycle) {
      throw std::invalid_argument("trace not sorted by cycle at line " +
                                  std::to_string(line_no));
    }
    records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> TraceReader::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromCsv(buffer.str());
}

// ---------------------------------------------------------------------------
// TraceReplay
// ---------------------------------------------------------------------------

TraceReplay::TraceReplay(Network& network, std::vector<TraceRecord> records)
    : network_(network), records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i) {
    assert(records_[i - 1].cycle <= records_[i].cycle &&
           "trace must be sorted by cycle");
  }
  // The network routes a flit by its destination tile and counts a
  // packet's flits in 16 bits; a trace from another grid must not reach it.
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TraceRecord& r = records_[i];
    const std::string problem =
        InjectionProblem(r.src, r.dst, r.num_flits, network_.num_nodes());
    if (problem.empty()) continue;
    throw std::invalid_argument(
        "trace record " + std::to_string(i) + " (cycle " +
        std::to_string(r.cycle) + ", src " + std::to_string(r.src) +
        ", dst " + std::to_string(r.dst) + ", " +
        std::to_string(r.num_flits) + " flits): " + problem);
  }
}

void TraceReplay::Tick() {
  if (Done()) return;
  if (!base_set_) {
    // Re-base so the first record fires on the current cycle.
    base_ = network_.now() - records_.front().cycle;
    base_set_ = true;
  }
  while (next_ < records_.size()) {
    const TraceRecord& r = records_[next_];
    if (r.cycle + base_ > network_.now()) break;  // not due yet
    if (!network_.CanInject(r.src, ClassOf(r.type))) break;  // backpressure
    Packet p;
    p.type = r.type;
    p.src = r.src;
    p.dst = r.dst;
    p.num_flits = r.num_flits;
    p.addr = r.addr;
    const bool ok = network_.Inject(p);
    assert(ok);
    (void)ok;
    ++next_;
  }
}

}  // namespace gnoc
