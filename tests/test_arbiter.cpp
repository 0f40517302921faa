// Unit tests for round-robin and matrix arbiters, including a seeded
// differential test against reference copies of the std::vector<bool>
// arbiters the mask-based ones replaced.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "noc/arbiter.hpp"

namespace gnoc {
namespace {

/// The mask with exactly the listed inputs set.
RequestMask Mask(std::initializer_list<int> inputs) {
  RequestMask m = 0;
  for (const int i : inputs) m |= RequestBit(i);
  return m;
}

TEST(RoundRobinTest, NoRequestsNoGrant) {
  Arbiter arb(ArbiterKind::kRoundRobin, 4);
  EXPECT_EQ(arb.Arbitrate(0), -1);
  EXPECT_EQ(arb.pointer(), 0u);
}

TEST(RoundRobinTest, SingleRequesterAlwaysWins) {
  Arbiter arb(ArbiterKind::kRoundRobin, 4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.Arbitrate(Mask({2})), 2);
  }
}

TEST(RoundRobinTest, RotatesAmongContenders) {
  Arbiter arb(ArbiterKind::kRoundRobin, 3);
  const RequestMask all = Mask({0, 1, 2});
  EXPECT_EQ(arb.Arbitrate(all), 0);
  EXPECT_EQ(arb.Arbitrate(all), 1);
  EXPECT_EQ(arb.Arbitrate(all), 2);
  EXPECT_EQ(arb.Arbitrate(all), 0);
}

TEST(RoundRobinTest, PointerSkipsIdleInputs) {
  Arbiter arb(ArbiterKind::kRoundRobin, 4);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 3})), 0);
  // Pointer now at 1; inputs 1,2 idle so 3 wins.
  EXPECT_EQ(arb.Arbitrate(Mask({0, 3})), 3);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 3})), 0);
}

TEST(RoundRobinTest, PointerInputWinsWhenRequesting) {
  Arbiter arb(ArbiterKind::kRoundRobin, 4);
  EXPECT_EQ(arb.Arbitrate(Mask({1})), 1);
  ASSERT_EQ(arb.pointer(), 2u);
  // The input at the pointer has the highest priority.
  EXPECT_EQ(arb.Arbitrate(Mask({0, 2, 3})), 2);
}

TEST(RoundRobinTest, FairnessUnderSaturation) {
  Arbiter arb(ArbiterKind::kRoundRobin, 4);
  std::map<int, int> wins;
  for (int i = 0; i < 400; ++i) {
    wins[arb.Arbitrate(Mask({0, 1, 2, 3}))]++;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(RoundRobinTest, Width64WrapsFromTheTopBit) {
  Arbiter arb(ArbiterKind::kRoundRobin, 64);
  EXPECT_EQ(arb.Arbitrate(Mask({62})), 62);
  ASSERT_EQ(arb.pointer(), 63u);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 63);
  EXPECT_EQ(arb.pointer(), 0u);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 0);
  EXPECT_EQ(arb.pointer(), 1u);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 63);
  EXPECT_EQ(arb.Arbitrate(~RequestMask{0}), 0);
}

TEST(RoundRobinTest, LoadRejectsPointerOutOfRange) {
  for (const std::uint64_t pointer : {3u, 4u, 1000u}) {
    Serializer s;
    s.U64(pointer);
    Arbiter arb(ArbiterKind::kRoundRobin, 4);
    Deserializer d(s.bytes());
    if (pointer < 4) {
      arb.Load(d);
      EXPECT_EQ(arb.pointer(), pointer);
    } else {
      EXPECT_THROW(arb.Load(d), SerializeError) << pointer;
    }
  }
}

TEST(MatrixTest, GrantsLeastRecentlyServed) {
  Arbiter arb(ArbiterKind::kMatrix, 3);
  const RequestMask all = Mask({0, 1, 2});
  const int first = arb.Arbitrate(all);
  const int second = arb.Arbitrate(all);
  const int third = arb.Arbitrate(all);
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
  // After serving everyone once, the first requester is least recent again.
  EXPECT_EQ(arb.Arbitrate(all), first);
}

TEST(MatrixTest, NoRequestsNoGrant) {
  Arbiter arb(ArbiterKind::kMatrix, 2);
  EXPECT_EQ(arb.Arbitrate(0), -1);
}

TEST(MatrixTest, FairnessUnderSaturation) {
  Arbiter arb(ArbiterKind::kMatrix, 4);
  std::map<int, int> wins;
  for (int i = 0; i < 400; ++i) {
    wins[arb.Arbitrate(Mask({0, 1, 2, 3}))]++;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(MatrixTest, RecentWinnerLosesTies) {
  Arbiter arb(ArbiterKind::kMatrix, 2);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 1})), 0);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 1})), 1);
  // 1 just won; 0 must win the tie.
  EXPECT_EQ(arb.Arbitrate(Mask({0, 1})), 0);
}

TEST(MatrixTest, Width64ServesBothEnds) {
  Arbiter arb(ArbiterKind::kMatrix, 64);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 0);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 63);
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 0);
  // 63 lost to 0 last, so it is back in front of 0; input 1 has never been
  // served and outranks both.
  EXPECT_EQ(arb.Arbitrate(Mask({0, 63})), 63);
  EXPECT_EQ(arb.Arbitrate(~RequestMask{0}), 1);
}

// --- Reference arbiters: the std::vector<bool> loops the mask arbiters
// replaced, kept verbatim so the differential test pins their semantics.

class ReferenceRoundRobin {
 public:
  explicit ReferenceRoundRobin(std::size_t n) : n_(n) {}

  int Arbitrate(const std::vector<bool>& requests) {
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t i = (pointer_ + k) % n_;
      if (requests[i]) {
        pointer_ = (i + 1) % n_;
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t n_;
  std::size_t pointer_ = 0;
};

class ReferenceMatrix {
 public:
  explicit ReferenceMatrix(std::size_t n)
      : n_(n), prec_(n, std::vector<bool>(n, false)) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) prec_[i][j] = true;
    }
  }

  int Arbitrate(const std::vector<bool>& requests) {
    int winner = -1;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!requests[i]) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < n_; ++j) {
        if (j != i && requests[j] && prec_[j][i]) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        winner = static_cast<int>(i);
        break;
      }
    }
    if (winner >= 0) {
      const auto w = static_cast<std::size_t>(winner);
      for (std::size_t j = 0; j < n_; ++j) {
        prec_[w][j] = false;
        if (j != w) prec_[j][w] = true;
      }
    }
    return winner;
  }

  void Save(Serializer& s) const {
    for (const auto& row : prec_) {
      for (const bool bit : row) s.Bool(bit);
    }
  }

 private:
  std::size_t n_;
  std::vector<std::vector<bool>> prec_;
};

/// A random request mask over `n` inputs: dense, sparse or empty.
RequestMask RandomRequests(Rng& rng, std::size_t n) {
  RequestMask m = rng.Next();
  switch (rng.NextBounded(4)) {
    case 0: m &= rng.Next() & rng.Next(); break;  // sparse
    case 1: m = RequestBit(static_cast<int>(rng.NextBounded(n))); break;
    case 2: if (rng.NextBounded(8) == 0) m = 0; break;
    default: break;
  }
  return n == 64 ? m : m & (RequestBit(static_cast<int>(n)) - 1);
}

std::vector<bool> ToVector(RequestMask m, std::size_t n) {
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = ((m >> i) & 1) != 0;
  return v;
}

TEST(ArbiterDifferentialTest, MasksMatchTheVectorArbitersAtEveryWidth) {
  Rng rng(0xA5B17E5);
  for (std::size_t n = 1; n <= kMaxArbiterInputs; ++n) {
    Arbiter rr(ArbiterKind::kRoundRobin, n);
    ReferenceRoundRobin rr_ref(n);
    Arbiter matrix(ArbiterKind::kMatrix, n);
    ReferenceMatrix matrix_ref(n);
    for (int step = 0; step < 400; ++step) {
      const RequestMask requests = RandomRequests(rng, n);
      const std::vector<bool> vec = ToVector(requests, n);
      ASSERT_EQ(rr.Arbitrate(requests), rr_ref.Arbitrate(vec))
          << "round-robin width " << n << " step " << step;
      ASSERT_EQ(rr.pointer(), rr_ref.pointer());
      ASSERT_EQ(matrix.Arbitrate(requests), matrix_ref.Arbitrate(vec))
          << "matrix width " << n << " step " << step;
    }
    // The matrix snapshot bytes are the reference's row-major layout.
    Serializer got;
    Serializer want;
    matrix.Save(got);
    matrix_ref.Save(want);
    ASSERT_EQ(got.bytes(), want.bytes()) << "width " << n;
    // And they load back into an arbiter that keeps deciding identically.
    Arbiter restored(ArbiterKind::kMatrix, n);
    Deserializer d(got.bytes());
    restored.Load(d);
    for (int step = 0; step < 50; ++step) {
      const RequestMask requests = RandomRequests(rng, n);
      const int want_winner = matrix_ref.Arbitrate(ToVector(requests, n));
      ASSERT_EQ(restored.Arbitrate(requests), want_winner)
          << "restored width " << n;
    }
  }
}

}  // namespace
}  // namespace gnoc
