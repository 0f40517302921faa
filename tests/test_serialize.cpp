// Tests for the snapshot serialization layer (common/serialize.hpp):
// primitive round-trips, bounds-checked reads, the framed snapshot-file
// container and its rejection paths (magic, version, fingerprint, CRC).
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gnoc {
namespace {

/// A unique scratch directory per test, removed on teardown.
class SerializeFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gnoc_serialize_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST(SerializeTest, PrimitivesRoundTrip) {
  Serializer s;
  s.U8(0xAB);
  s.U16(0xBEEF);
  s.U32(0xDEADBEEFu);
  s.U64(0x0123456789ABCDEFull);
  s.I32(-42);
  s.I64(-123456789012345ll);
  s.Bool(true);
  s.Bool(false);
  s.Double(3.141592653589793);
  s.Str("hello snapshot");
  s.Str("");  // empty strings are legal

  Deserializer d(s.bytes());
  EXPECT_EQ(d.U8(), 0xAB);
  EXPECT_EQ(d.U16(), 0xBEEF);
  EXPECT_EQ(d.U32(), 0xDEADBEEFu);
  EXPECT_EQ(d.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.I32(), -42);
  EXPECT_EQ(d.I64(), -123456789012345ll);
  EXPECT_TRUE(d.Bool());
  EXPECT_FALSE(d.Bool());
  EXPECT_EQ(d.Double(), 3.141592653589793);
  EXPECT_EQ(d.Str(), "hello snapshot");
  EXPECT_EQ(d.Str(), "");
  EXPECT_NO_THROW(d.Finish());
}

TEST(SerializeTest, LayoutIsLittleEndianBytewise) {
  // The wire format is defined byte-by-byte, so it is identical on any
  // host — pin it down literally.
  Serializer s;
  s.U32(0x11223344u);
  const std::string& b = s.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x44);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x33);
  EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x22);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x11);
}

TEST(SerializeTest, DoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::quiet_NaN()};
  Serializer s;
  for (double v : values) s.Double(v);
  Deserializer d(s.bytes());
  for (double v : values) {
    const double got = d.Double();
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(got, v);
      // -0.0 == 0.0 compares equal; check the sign bit explicitly.
      EXPECT_EQ(std::signbit(got), std::signbit(v));
    }
  }
}

TEST(SerializeTest, TruncatedReadThrows) {
  Serializer s;
  s.U32(7);
  const std::string bytes = s.bytes();
  Deserializer d(std::string_view(bytes).substr(0, 3));
  EXPECT_THROW(d.U32(), SerializeError);
}

TEST(SerializeTest, TruncatedStringThrows) {
  Serializer s;
  s.Str("abcdef");
  const std::string bytes = s.bytes();
  // Keep the length prefix but drop payload bytes.
  Deserializer d(std::string_view(bytes).substr(0, bytes.size() - 2));
  EXPECT_THROW(d.Str(), SerializeError);
}

TEST(SerializeTest, FinishRejectsTrailingBytes) {
  Serializer s;
  s.U8(1);
  s.U8(2);
  Deserializer d(s.bytes());
  d.U8();
  EXPECT_THROW(d.Finish(), SerializeError);
  d.U8();
  EXPECT_NO_THROW(d.Finish());
}

TEST(SerializeTest, Crc32MatchesKnownVector) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(SerializeTest, Fnv1a64MatchesKnownVector) {
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
}

TEST_F(SerializeFileTest, SnapshotFileRoundTrips) {
  Serializer s;
  s.U64(424242);
  s.Str("payload");
  WriteSnapshotFile(Path("snap.bin"), 0xF00D, s.bytes());

  const std::string payload = ReadSnapshotFile(Path("snap.bin"), 0xF00D);
  Deserializer d(payload);
  EXPECT_EQ(d.U64(), 424242u);
  EXPECT_EQ(d.Str(), "payload");
  EXPECT_NO_THROW(d.Finish());
}

TEST_F(SerializeFileTest, AtomicWriteLeavesNoTempFile) {
  AtomicWriteFile(Path("out.txt"), "contents");
  std::ifstream in(Path("out.txt"));
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "contents");
  EXPECT_FALSE(std::filesystem::exists(Path("out.txt.tmp")));
}

TEST_F(SerializeFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadSnapshotFile(Path("nope.bin"), 0), SerializeError);
}

TEST_F(SerializeFileTest, FingerprintMismatchRejected) {
  WriteSnapshotFile(Path("snap.bin"), 0x1111, "data");
  try {
    ReadSnapshotFile(Path("snap.bin"), 0x2222);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST_F(SerializeFileTest, CorruptPayloadRejectedByCrc) {
  WriteSnapshotFile(Path("snap.bin"), 0xF00D, "sensitive payload");
  // Flip one payload byte in the middle of the file.
  std::fstream f(Path("snap.bin"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(24);
  char c;
  f.seekg(24);
  f.get(c);
  f.seekp(24);
  f.put(static_cast<char>(c ^ 0x01));
  f.close();
  EXPECT_THROW(ReadSnapshotFile(Path("snap.bin"), 0xF00D), SerializeError);
}

TEST_F(SerializeFileTest, TruncatedFileRejected) {
  WriteSnapshotFile(Path("snap.bin"), 0xF00D, "some payload bytes");
  const auto full = std::filesystem::file_size(Path("snap.bin"));
  std::filesystem::resize_file(Path("snap.bin"), full - 3);
  EXPECT_THROW(ReadSnapshotFile(Path("snap.bin"), 0xF00D), SerializeError);
}

/// Frames a small payload like WriteSnapshotFile, but with a chosen magic
/// and format version and a valid CRC trailer, so only the header checks
/// can reject it.
void WriteFramed(const std::string& path, const std::string& magic,
                 std::uint32_t version) {
  Serializer s;
  for (char ch : magic) s.U8(static_cast<std::uint8_t>(ch));
  s.U32(version);
  s.U64(0xF00D);
  s.Str("payload");
  std::string framed = s.TakeBytes();
  Serializer trailer;
  trailer.U32(Crc32(framed));
  framed += trailer.bytes();
  AtomicWriteFile(path, framed);
}

/// The SerializeError message ReadSnapshotFile throws for `path`.
std::string ReadError(const std::string& path) {
  try {
    ReadSnapshotFile(path, 0xF00D);
  } catch (const SerializeError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SerializeError";
  return "";
}

TEST_F(SerializeFileTest, BadMagicRejected) {
  // A framed file whose body starts with the wrong magic but has a valid
  // CRC trailer, so the magic check itself must fire.
  WriteFramed(Path("snap.bin"), "NOTASNAP", kSnapshotFormatVersion);
  EXPECT_NE(ReadError(Path("snap.bin")).find("magic"), std::string::npos);
}

TEST_F(SerializeFileTest, VersionSkewRejected) {
  // Same framing, but a future format version — or v4, written before the
  // scheduler state left the snapshot: the reader must refuse it with a
  // message naming both versions and advice the user can act on (like the
  // fingerprint error), not misparse the payload.
  for (const std::uint32_t version : {kSnapshotFormatVersion + 1, 4u}) {
    WriteFramed(Path("snap.bin"), "GNOCSNAP", version);
    const std::string what = ReadError(Path("snap.bin"));
    EXPECT_NE(what.find("format version " + std::to_string(version)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("this build reads version " +
                        std::to_string(kSnapshotFormatVersion)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("written by a different build — delete the "
                        "checkpoint directory or rerun with that build"),
              std::string::npos)
        << what;
  }
}

TEST(SerializeTest, PriorityQueuePreservesHeapArray) {
  // Equal-priority elements must round-trip in identical pop order; that is
  // the whole point of saving the heap array verbatim.
  using Pq = std::priority_queue<std::pair<int, int>>;
  Pq original;
  for (int i = 0; i < 16; ++i) original.push({i % 3, i});

  Serializer s;
  IoSeq(s, PriorityQueueAccess<Pq>::Container(original));

  Deserializer d(s.bytes());
  Pq restored;
  IoSeq(d, PriorityQueueAccess<Pq>::Container(restored));

  while (!original.empty()) {
    ASSERT_FALSE(restored.empty());
    EXPECT_EQ(restored.top(), original.top());
    original.pop();
    restored.pop();
  }
  EXPECT_TRUE(restored.empty());
}

// --- Field-walk helpers ------------------------------------------------------

enum class Shade : std::uint8_t { kLight = 1, kDark = 200 };

/// One field per helper, walked the way components walk theirs.
struct Walked {
  bool flag = false;
  std::int8_t half = 0;
  std::uint16_t seq = 0;
  std::int32_t vc = 0;
  std::int64_t tokens = 0;
  double ratio = 0.0;
  Shade shade = Shade::kLight;
  std::string name;
  std::array<std::uint32_t, 2> fixed{};
  std::vector<std::uint64_t> sized = std::vector<std::uint64_t>(2);
  std::deque<std::pair<std::uint64_t, std::int32_t>> queue;
  std::unordered_map<std::int32_t, std::uint8_t> map;
  std::unique_ptr<std::uint64_t> extra;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.flag);
    Io(ar, self.half);
    Io(ar, self.seq);
    Io(ar, self.vc);
    Io(ar, self.tokens);
    Io(ar, self.ratio);
    Io(ar, self.shade);
    Io(ar, self.name);
    Io(ar, self.fixed);
    IoSized(ar, self.sized, "sized");
    IoSeq(ar, self.queue);
    IoSortedMap(ar, self.map);
    IoPresence(ar, self.extra, "extra");
  }
};

TEST(FieldWalkTest, WritesEachTypeInItsWireWidthAndRoundTrips) {
  Walked w;
  w.flag = true;
  w.half = -1;
  w.seq = 0xBEEF;
  w.vc = -2;
  w.tokens = -3;
  w.ratio = 0.5;
  w.shade = Shade::kDark;
  w.name = "r5";
  w.fixed = {7, 8};
  w.sized = {9, 10};
  w.queue = {{11, -12}};
  w.map = {{30, 3}, {-4, 4}, {20, 2}};
  w.extra = std::make_unique<std::uint64_t>(13);
  Serializer s;
  Io(s, w);

  Serializer want;
  want.Bool(true);
  want.U8(0xFF);
  want.U16(0xBEEF);
  want.I32(-2);
  want.I64(-3);
  want.Double(0.5);
  want.U8(200);
  want.Str("r5");
  want.U32(7);
  want.U32(8);
  want.U64(2);
  want.U64(9);
  want.U64(10);
  want.U64(1);
  want.U64(11);
  want.I32(-12);
  want.U64(3);  // map entries, sorted by key
  const std::pair<std::int32_t, std::uint8_t> sorted[] = {
      {-4, 4}, {20, 2}, {30, 3}};
  for (const auto& [key, value] : sorted) {
    want.I32(key);
    want.U8(value);
  }
  want.Bool(true);
  want.U64(13);
  EXPECT_EQ(s.bytes(), want.bytes());

  Walked back;
  back.extra = std::make_unique<std::uint64_t>(0);
  Deserializer d(s.bytes());
  Io(d, back);
  d.Finish();
  Serializer again;
  Io(again, back);
  EXPECT_EQ(again.bytes(), s.bytes());
  EXPECT_EQ(back.half, -1);
  EXPECT_EQ(back.shade, Shade::kDark);
  EXPECT_EQ(back.map.at(-4), 4);
}

TEST(FieldWalkTest, SequenceCountsPastThePayloadAreRefusedUnsized) {
  Serializer s;
  s.U64(std::uint64_t{1} << 40);
  s.U64(5);
  std::vector<std::uint64_t> seq;
  Deserializer d(s.bytes());
  EXPECT_THROW(IoSeq(d, seq), SerializeError);
  EXPECT_EQ(seq.capacity(), 0u);

  std::unordered_map<std::int32_t, std::int32_t> map;
  Deserializer dm(s.bytes());
  EXPECT_THROW(IoSortedMap(dm, map), SerializeError);
  EXPECT_TRUE(map.empty());
}

TEST(FieldWalkTest, ConstructionDerivedCountsAndPresenceMustMatch) {
  Serializer s;
  IoCount(s, 3, "router");
  Deserializer same(s.bytes());
  EXPECT_NO_THROW(IoCount(same, 3, "router"));
  Deserializer other(s.bytes());
  EXPECT_THROW(IoCount(other, 4, "router"), SerializeError);

  const std::unique_ptr<std::uint64_t> absent;
  Serializer off;
  IoPresence(off, absent, "audit");
  auto present = std::make_unique<std::uint64_t>(1);
  Deserializer d(off.bytes());
  try {
    IoPresence(d, present, "audit");
    ADD_FAILURE() << "presence mismatch accepted";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("audit"), std::string::npos);
  }
}

}  // namespace
}  // namespace gnoc
