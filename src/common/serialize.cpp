#include "common/serialize.hpp"

#include <bit>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace gnoc {
namespace {

constexpr std::string_view kSnapshotMagic = "GNOCSNAP";

std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = MakeCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char ch : data) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ull;
  }
  return h;
}

void Serializer::Double(double v) {
  U64(std::bit_cast<std::uint64_t>(v));
}

void Serializer::Str(std::string_view v) {
  U64(v.size());
  buf_.append(v.data(), v.size());
}

double Deserializer::Double() {
  return std::bit_cast<double>(U64());
}

std::string Deserializer::Str() {
  const std::uint64_t n = U64();
  Need(n);
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::size_t Deserializer::Count() {
  const std::uint64_t n = U64();
  if (n > remaining()) {
    throw SerializeError("snapshot count " + std::to_string(n) +
                         " at offset " + std::to_string(pos_ - 8) +
                         " exceeds the " + std::to_string(remaining()) +
                         " byte(s) left");
  }
  return static_cast<std::size_t>(n);
}

void IoCount(Deserializer& d, std::size_t n, std::string_view what) {
  const std::uint64_t saved = d.U64();
  if (saved != n) {
    throw SerializeError("snapshot " + std::string(what) + " count " +
                         std::to_string(saved) + " differs from this "
                         "configuration's " + std::to_string(n));
  }
}

void IoDerived(Deserializer& d, bool value, std::string_view what) {
  if (d.U8() != (value ? 1 : 0)) {
    throw SerializeError("snapshot " + std::string(what) +
                         " contradicts the fields before it");
  }
}

void Deserializer::Finish() const {
  if (pos_ != data_.size()) {
    throw SerializeError("snapshot payload has " +
                         std::to_string(data_.size() - pos_) +
                         " trailing byte(s): Save/Load layout mismatch");
  }
}

void AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open for writing: " + tmp);
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("short write: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("rename " + tmp + " -> " + path + ": " +
                             std::strerror(err));
  }
}

void WriteSnapshotFile(const std::string& path, std::uint64_t fingerprint,
                       std::string_view payload) {
  Serializer s;
  for (char ch : kSnapshotMagic) {
    s.U8(static_cast<std::uint8_t>(ch));
  }
  s.U32(kSnapshotFormatVersion);
  s.U64(fingerprint);
  s.Str(payload);
  std::string framed = s.TakeBytes();
  Serializer trailer;
  trailer.U32(Crc32(framed));
  framed += trailer.bytes();
  AtomicWriteFile(path, framed);
}

std::string ReadSnapshotFile(const std::string& path,
                             std::uint64_t expected_fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializeError("cannot open snapshot: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string raw = buf.str();
  if (raw.size() < 4) {
    throw SerializeError("snapshot truncated (no CRC trailer): " + path);
  }
  const std::string_view body(raw.data(), raw.size() - 4);
  Deserializer crc_d(std::string_view(raw).substr(raw.size() - 4));
  const std::uint32_t stored_crc = crc_d.U32();
  if (Crc32(body) != stored_crc) {
    throw SerializeError("snapshot CRC mismatch (corrupt or truncated): " +
                         path);
  }
  Deserializer d(body);
  for (char ch : kSnapshotMagic) {
    if (d.U8() != static_cast<std::uint8_t>(ch)) {
      throw SerializeError("not a GNOC snapshot (bad magic): " + path);
    }
  }
  const std::uint32_t version = d.U32();
  if (version != kSnapshotFormatVersion) {
    throw SerializeError(
        "snapshot format version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + "): file " + path +
        " was written by a different build — delete the checkpoint "
        "directory or rerun with that build");
  }
  const std::uint64_t fingerprint = d.U64();
  if (fingerprint != expected_fingerprint) {
    std::ostringstream msg;
    msg << "snapshot fingerprint mismatch: file " << path << " was taken "
        << "under a different configuration (file 0x" << std::hex
        << fingerprint << ", expected 0x" << expected_fingerprint
        << ") — delete the checkpoint directory or rerun with the "
        << "original configuration";
    throw SerializeError(msg.str());
  }
  std::string payload = d.Str();
  d.Finish();
  return payload;
}

}  // namespace gnoc
