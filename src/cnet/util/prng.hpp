// Deterministic, fast pseudo-random number generation.
//
// Benchmarks and property tests need reproducible randomness that is cheap
// enough to sit inside a simulation inner loop. We implement SplitMix64 (for
// seeding) and xoshiro256** 1.0 (general purpose; Blackman & Vigna, public
// domain), exposed as a UniformRandomBitGenerator so it composes with
// <random> distributions where convenient.
#pragma once

#include <array>
#include <cstdint>

namespace cnet::util {

// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xorshift64* (Marsaglia's xorshift, Vigna's * scrambler): the cheap
// inline step for call sites where carrying a full Xoshiro256 would be
// overkill, such as the diffracting tree's prism choice. Mutates `state`,
// which must be seeded nonzero.
inline constexpr std::uint64_t xorshift64_star(std::uint64_t& state) noexcept {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dULL;
}

// xoshiro256**: the workhorse generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5eed'c0de'1998'0331ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  // Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniform01() noexcept;

  // Jump ahead by 2^128 steps (gives independent subsequences per thread).
  void jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace cnet::util
