// Portable reference implementations of every kernel (DESIGN.md §14).
//
// These ARE the semantic definition of the kernel layer: the scalar backend
// is a thin table over these loops, and the AVX2 backend must reproduce
// their results bitwise. Reductions use a fixed 4-way striped accumulator
// (lane = t % 4, combined (l0+l2)+(l1+l3)) so a 4-lane vector accumulator
// performs the identical rounded additions. The AVX2 TU also calls the
// per-element helpers here for loop tails.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/constants.h"
#include "kernels/kernels.h"
#include "kernels/trig_core.h"

namespace mulink::kernels::detail {

// Striped 4-accumulator sum: the reduction order every backend implements.
// Tail elements (n % 4) continue filling lanes 0..2 in order, matching the
// AVX2 masked-tail load where absent lanes contribute exact +0.0 terms.
template <typename Term>
inline double StripedSum(std::size_t n, Term term) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    acc0 += term(t);
    acc1 += term(t + 1);
    acc2 += term(t + 2);
    acc3 += term(t + 3);
  }
  if (t < n) acc0 += term(t++);
  if (t < n) acc1 += term(t++);
  if (t < n) acc2 += term(t);
  return (acc0 + acc2) + (acc1 + acc3);
}

inline void GenericAtan2(const double* y, const double* x, std::size_t n,
                         double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Atan2Scalar(y[i], x[i]);
  }
}

inline void GenericSinCos(const double* x, std::size_t n, double* sin_out,
                          double* cos_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const SinCosPair sc = SinCosScalar(x[i]);
    sin_out[i] = sc.sin;
    cos_out[i] = sc.cos;
  }
}

inline void GenericDeinterleave(const Complex* src, std::size_t n, double* re,
                                double* im) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = src[i].real();
    im[i] = src[i].imag();
  }
}

// (a + bi) * (c + si) with the exact operation order the AVX2 path uses:
// re' = a*c - b*s, im' = a*s + b*c. This matches libstdc++'s non-C99
// complex operator* DAG for finite inputs, so switching the sanitize
// rotation onto this kernel did not change results.
inline Complex RotateOne(Complex z, double c, double s) {
  const double re = z.real();
  const double im = z.imag();
  return {re * c - im * s, re * s + im * c};
}

inline void GenericRotateRows(const Complex* src, std::size_t rows,
                              std::size_t cols, const double* cos_v,
                              const double* sin_v, Complex* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    const Complex* src_row = src + r * cols;
    Complex* dst_row = dst + r * cols;
    for (std::size_t k = 0; k < cols; ++k) {
      dst_row[k] = RotateOne(src_row[k], cos_v[k], sin_v[k]);
    }
  }
}

inline double MuOne(Complex h, double los_frac, double dominant) {
  const double re = h.real();
  const double im = h.imag();
  const double power = re * re + im * im;
  return power > 0.0 ? (los_frac * dominant) / power : 0.0;
}

inline void GenericMuAccumulateRow(const Complex* row, const double* los_frac,
                                   double dominant, std::size_t n,
                                   double* mu_accum) {
  for (std::size_t k = 0; k < n; ++k) {
    mu_accum[k] += MuOne(row[k], los_frac[k], dominant);
  }
}

inline void GenericMeanStabilityAccumulate(const double* mu_row, double median,
                                           std::size_t n, double* mean_mu,
                                           double* stability) {
  for (std::size_t k = 0; k < n; ++k) {
    mean_mu[k] += mu_row[k];
    // The AVX2 path adds (mask & 1.0), i.e. +0.0 on false lanes — exact.
    stability[k] += mu_row[k] > median ? 1.0 : 0.0;
  }
}

inline void PowerMomentsOne(Complex z, double* sum_p, double* sum_p2,
                            double* sum_a) {
  const double re = z.real();
  const double im = z.imag();
  const double p = re * re + im * im;
  *sum_p += p;
  *sum_p2 += p * p;
  *sum_a += std::sqrt(p);
}

inline void GenericPowerMomentsAccumulate(const Complex* cells, std::size_t n,
                                          double* sum_p, double* sum_p2,
                                          double* sum_a) {
  for (std::size_t i = 0; i < n; ++i) {
    PowerMomentsOne(cells[i], sum_p + i, sum_p2 + i, sum_a + i);
  }
}

inline void GenericMultiply(const double* a, const double* b, std::size_t n,
                            double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

inline double GenericSumSquares(const double* a, std::size_t n) {
  return StripedSum(n, [&](std::size_t t) { return a[t] * a[t]; });
}

inline double GenericNormalizedDistanceSq(const double* a, const double* b,
                                          double norm, std::size_t n) {
  return StripedSum(n, [&](std::size_t t) {
    const double d = (a[t] - b[t]) / norm;
    return d * d;
  });
}

// ---- exact selection ---------------------------------------------------

// Batcher's odd-even merge sort over 32 inputs has 191 comparators; every
// network below is a subset of the one for its power of two.
inline constexpr std::size_t kMaxNetworkComparators = 191;

// One median network: compare-exchange c orders positions (lo[c], hi[c]),
// lo[c] < hi[c], in index order.
struct SelectionNetwork {
  std::size_t size = 0;
  std::array<std::uint8_t, kMaxNetworkComparators> lo{};
  std::array<std::uint8_t, kMaxNetworkComparators> hi{};
};

// The network ColumnMedians runs for n inputs (kernels.h): Batcher's
// odd-even merge sort for the next power of two >= n, without the
// comparators that touch +inf padding (positions >= n) and without those
// that cannot reach the median taps (found by walking the list backwards
// from the taps).
constexpr SelectionNetwork BuildSelectionNetwork(std::size_t n) {
  std::size_t pow2 = 1;
  while (pow2 < n) pow2 *= 2;
  std::array<std::uint8_t, kMaxNetworkComparators> lo{};
  std::array<std::uint8_t, kMaxNetworkComparators> hi{};
  std::size_t count = 0;
  for (std::size_t p = 1; p < pow2; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < pow2; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < pow2; ++i) {
          const std::size_t a = i + j;
          const std::size_t b = i + j + k;
          if (a / (2 * p) == b / (2 * p) && b < n) {
            lo[count] = static_cast<std::uint8_t>(a);
            hi[count] = static_cast<std::uint8_t>(b);
            ++count;
          }
        }
      }
    }
  }
  std::array<bool, kMaxNetworkInputs> needed{};
  if (n > 0) {
    needed[n / 2] = true;
    if (n % 2 == 0) needed[n / 2 - 1] = true;
  }
  std::array<bool, kMaxNetworkComparators> keep{};
  for (std::size_t c = count; c-- > 0;) {
    if (needed[lo[c]] || needed[hi[c]]) {
      keep[c] = true;
      needed[lo[c]] = true;
      needed[hi[c]] = true;
    }
  }
  SelectionNetwork net;
  for (std::size_t c = 0; c < count; ++c) {
    if (!keep[c]) continue;
    net.lo[net.size] = lo[c];
    net.hi[net.size] = hi[c];
    ++net.size;
  }
  return net;
}

inline constexpr std::array<SelectionNetwork, kMaxNetworkInputs + 1>
    kSelectionNetworks = [] {
      std::array<SelectionNetwork, kMaxNetworkInputs + 1> nets{};
      for (std::size_t n = 1; n <= kMaxNetworkInputs; ++n) {
        nets[n] = BuildSelectionNetwork(n);
      }
      return nets;
    }();

// The network for n = N, unrolled: every comparator index is a compile-time
// constant, so the values stay in registers instead of round-tripping
// through memory between dependent compare-exchanges. `Lanes` supplies the
// value type and its Load/Min/Max/Mid — a double in the scalar backend, a
// 4-column vector in the AVX2 one — with Min(x, y) = x < y ? x : y and
// Max(x, y) = x > y ? x : y.
template <class Lanes, std::size_t N, std::size_t C>
inline void CompareExchangeAt(typename Lanes::Value* v) {
  constexpr std::size_t i = kSelectionNetworks[N].lo[C];
  constexpr std::size_t j = kSelectionNetworks[N].hi[C];
  const typename Lanes::Value x = v[i];
  const typename Lanes::Value y = v[j];
  v[i] = Lanes::Min(x, y);
  v[j] = Lanes::Max(x, y);
}

template <class Lanes, std::size_t N, std::size_t... C>
inline void RunSelectionNetwork([[maybe_unused]] typename Lanes::Value* v,
                                std::index_sequence<C...>) {
  (CompareExchangeAt<Lanes, N, C>(v), ...);
}

// Median of column `col` (or of the lane group starting there) over N rows;
// with kDeviation, of |rows[i][col] - center[col]| instead.
template <class Lanes, std::size_t N, bool kDeviation>
inline typename Lanes::Value NetworkMedian(const double* const* rows,
                                           std::size_t col,
                                           const double* center) {
  typename Lanes::Value v[N];
  if constexpr (kDeviation) {
    const typename Lanes::Value mid = Lanes::Load(center + col);
    for (std::size_t i = 0; i < N; ++i) {
      v[i] = Lanes::AbsDiff(Lanes::Load(rows[i] + col), mid);
    }
  } else {
    for (std::size_t i = 0; i < N; ++i) v[i] = Lanes::Load(rows[i] + col);
  }
  RunSelectionNetwork<Lanes, N>(
      v, std::make_index_sequence<kSelectionNetworks[N].size>{});
  if constexpr (N % 2 == 1) {
    return v[N / 2];
  } else {
    return Lanes::Mid(v[N / 2 - 1], v[N / 2]);
  }
}

// One column per value: the scalar reference. AbsDiff is
// dsp::MedianAbsDeviation's std::abs(x - median).
struct ScalarLanes {
  using Value = double;
  static double Load(const double* p) { return *p; }
  static double AbsDiff(double x, double center) {
    return std::abs(x - center);
  }
  static double Min(double x, double y) { return x < y ? x : y; }
  static double Max(double x, double y) { return x > y ? x : y; }
  static double Mid(double lo, double hi) { return 0.5 * (lo + hi); }
};

template <std::size_t N, bool kDeviation>
void ScalarColumnMediansN(const double* const* rows, std::size_t cols,
                          const double* center, double* out) {
  for (std::size_t c = 0; c < cols; ++c) {
    out[c] = NetworkMedian<ScalarLanes, N, kDeviation>(rows, c, center);
  }
}

// A backend's column-median loop for one n: plain medians when center is
// null, else medians of |x - center|.
using ColumnMediansFn = void (*)(const double* const* rows, std::size_t cols,
                                 const double* center, double* out);

// Per-n entry points, indexed by n (entry 0 is unused: ColumnMedians
// requires n >= 1).
template <template <std::size_t> class Fn, std::size_t... N>
constexpr std::array<ColumnMediansFn, sizeof...(N) + 1> ColumnMediansTable(
    std::index_sequence<N...>) {
  return {nullptr, &Fn<N + 1>::Run...};
}

template <std::size_t N>
struct ScalarColumnMedians {
  static void Run(const double* const* rows, std::size_t cols,
                  const double* center, double* out) {
    if (center == nullptr) {
      ScalarColumnMediansN<N, false>(rows, cols, center, out);
    } else {
      ScalarColumnMediansN<N, true>(rows, cols, center, out);
    }
  }
};

inline void GenericColumnMedians(const double* const* rows, std::size_t n,
                                 std::size_t cols, const double* center,
                                 double* out) {
  static constexpr auto kTable = ColumnMediansTable<ScalarColumnMedians>(
      std::make_index_sequence<kMaxNetworkInputs>{});
  kTable[n](rows, cols, center, out);
}

inline void GenericWeightedCovariance(const double* re, const double* im,
                                      std::size_t antennas, std::size_t n,
                                      const double* w_rep, Complex* out) {
  for (std::size_t i = 0; i < antennas; ++i) {
    const double* xr = re + i * n;
    const double* xi = im + i * n;
    out[i * antennas + i] =
        Complex(StripedSum(n,
                           [&](std::size_t t) {
                             return w_rep[t] *
                                    (xr[t] * xr[t] + xi[t] * xi[t]);
                           }),
                0.0);
    for (std::size_t j = i + 1; j < antennas; ++j) {
      const double* yr = re + j * n;
      const double* yi = im + j * n;
      // R_ij = sum_t w * x_i(t) * conj(x_j(t))
      const double c_re = StripedSum(n, [&](std::size_t t) {
        return w_rep[t] * (xr[t] * yr[t] + xi[t] * yi[t]);
      });
      const double c_im = StripedSum(n, [&](std::size_t t) {
        return w_rep[t] * (xi[t] * yr[t] - xr[t] * yi[t]);
      });
      out[i * antennas + j] = Complex(c_re, c_im);
      out[j * antennas + i] = Complex(c_re, -c_im);
    }
  }
}

// One Bartlett grid point against one packed covariance: the expanded
// Hermitian quadratic form a^H R a = sum_m d_m |a_m|^2
// + 2 * sum_{m<j} [re_mj*(p*u + q*v) - im_mj*(p*v - q*u)] with a_m = p + qi,
// a_j = u + vi. Evaluated per grid point (SIMD lane = grid point), so both
// backends run the same per-point DAG.
inline double BartlettPoint(const double* steer_re, const double* steer_im,
                            std::size_t points, std::size_t antennas,
                            const double* packed, std::size_t i) {
  double acc = 0.0;
  for (std::size_t m = 0; m < antennas; ++m) {
    const double p = steer_re[m * points + i];
    const double q = steer_im[m * points + i];
    acc += packed[m] * (p * p + q * q);
  }
  std::size_t idx = antennas;
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t j = m + 1; j < antennas; ++j) {
      const double r = packed[idx];
      const double s = packed[idx + 1];
      idx += 2;
      const double p = steer_re[m * points + i];
      const double q = steer_im[m * points + i];
      const double u = steer_re[j * points + i];
      const double v = steer_im[j * points + i];
      acc += 2.0 * (r * (p * u + q * v) - s * (p * v - q * u));
    }
  }
  return acc;
}

inline void GenericBartlettScan(const double* steer_re, const double* steer_im,
                                std::size_t points, std::size_t antennas,
                                const double* const* packed_covs,
                                std::size_t num_covs, double inv_norm,
                                double* const* outs) {
  for (std::size_t i = 0; i < points; ++i) {
    for (std::size_t c = 0; c < num_covs; ++c) {
      const double value =
          BartlettPoint(steer_re, steer_im, points, antennas, packed_covs[c],
                        i) *
          inv_norm;
      outs[c][i] = value > 0.0 ? value : 0.0;
    }
  }
}

inline double MusicPoint(const double* steer_re, const double* steer_im,
                         std::size_t points, std::size_t antennas,
                         const double* noise_re, const double* noise_im,
                         std::size_t noise_dim, double denom_floor,
                         std::size_t i) {
  double denom = 0.0;
  for (std::size_t e = 0; e < noise_dim; ++e) {
    const double* vr = noise_re + e * antennas;
    const double* vi = noise_im + e * antennas;
    double dot_re = 0.0;
    double dot_im = 0.0;
    for (std::size_t m = 0; m < antennas; ++m) {
      const double p = steer_re[m * points + i];
      const double q = steer_im[m * points + i];
      // conj(v_m) * a_m
      dot_re += vr[m] * p + vi[m] * q;
      dot_im += vr[m] * q - vi[m] * p;
    }
    denom += dot_re * dot_re + dot_im * dot_im;
  }
  return 1.0 / (denom > denom_floor ? denom : denom_floor);
}

inline void GenericMusicScan(const double* steer_re, const double* steer_im,
                             std::size_t points, std::size_t antennas,
                             const double* noise_re, const double* noise_im,
                             std::size_t noise_dim, double denom_floor,
                             double* out) {
  for (std::size_t i = 0; i < points; ++i) {
    out[i] = MusicPoint(steer_re, steer_im, points, antennas, noise_re,
                        noise_im, noise_dim, denom_floor, i);
  }
}

}  // namespace mulink::kernels::detail
