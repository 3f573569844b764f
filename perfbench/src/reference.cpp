#include "reference.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Work of the kernel: the same mix as a transient step of a path netlist —
/// exp()/tanh() device evaluation, a small dense LU with partial pivoting
/// and a triangular solve — repeated kSystems times.
constexpr int kN = 24;
constexpr int kSystems = 9000;

/// Keeps the kernel's result alive so the compiler cannot drop the work.
volatile double g_sink = 0.0;

double solve_one(std::uint64_t& lcg, std::array<double, kN>& x) {
  std::array<std::array<double, kN>, kN> a{};
  std::array<double, kN> b{};
  for (int i = 0; i < kN; ++i) {
    double row = 0.0;
    for (int j = 0; j < kN; ++j) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const double r = static_cast<double>(lcg >> 11) * 0x1.0p-53 - 0.5;
      a[i][j] = r * std::exp(0.1 * x[j]);
      row += std::abs(a[i][j]);
    }
    a[i][i] += row + 1.0;  // diagonally dominant: never singular
    b[i] = std::tanh(x[i]) + 1.0;
  }
  for (int k = 0; k < kN; ++k) {
    int p = k;
    for (int i = k + 1; i < kN; ++i)
      if (std::abs(a[i][k]) > std::abs(a[p][k])) p = i;
    std::swap(a[k], a[p]);
    std::swap(b[k], b[p]);
    for (int i = k + 1; i < kN; ++i) {
      const double f = a[i][k] / a[k][k];
      for (int j = k + 1; j < kN; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  for (int i = kN - 1; i >= 0; --i) {
    double s = b[i];
    for (int j = i + 1; j < kN; ++j) s -= a[i][j] * x[j];
    x[i] = s / a[i][i];
  }
  return x[0];
}

double run_kernel() {
  const auto start = Clock::now();
  std::uint64_t lcg = 2007;
  std::array<double, kN> x{};
  double sum = 0.0;
  for (int s = 0; s < kSystems; ++s) sum += solve_one(lcg, x);
  g_sink = sum;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double reference_seconds(int threads) {
  if (threads <= 1) return run_kernel();
  std::vector<double> seconds(static_cast<std::size_t>(threads));
  {
    std::vector<std::thread> pool;
    pool.reserve(seconds.size());
    for (double& s : seconds) pool.emplace_back([&s] { s = run_kernel(); });
    for (std::thread& t : pool) t.join();
  }
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total / threads;
}

}  // namespace perfbench
