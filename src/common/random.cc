#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace tpdb {

namespace {
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void Random::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Random::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

int64_t Random::Uniform(int64_t lo, int64_t hi) {
  TPDB_CHECK_LE(lo, hi);
  // Unsigned arithmetic throughout: hi - lo overflows int64_t for ranges
  // wider than 2^63 (e.g. [-2^62 - 1, 2^62 + 1]), and wraps correctly here.
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + v % range);
}

double Random::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Random::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int64_t Random::Exponential(double mean) {
  TPDB_CHECK_GT(mean, 0.0);
  const double u = NextDouble();
  const double v = -mean * std::log(1.0 - u);
  const auto r = static_cast<int64_t>(v);
  return r < 1 ? 1 : r;
}

int64_t Random::Zipf(int64_t n, double s) {
  TPDB_CHECK_GT(n, 0);
  if (s <= 0.0) return Uniform(0, n - 1);
  // Inverse-CDF on the (truncated) harmonic weights; O(log n) via a bisection
  // over the analytic approximation would be faster, but generators are not
  // on the measured path, so a rejection scheme keeps this simple and exact
  // enough: sample via the standard "two-level" approximation.
  const double u = NextDouble();
  // Approximate inverse CDF of Zipf using the continuous analogue.
  const double t = std::pow(static_cast<double>(n), 1.0 - s);
  const double x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
  auto r = static_cast<int64_t>(x) - 1;
  if (r < 0) r = 0;
  if (r >= n) r = n - 1;
  return r;
}

}  // namespace tpdb
