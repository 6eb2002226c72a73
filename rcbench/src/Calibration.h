//===----------------------------------------------------------------------===//
///
/// \file
/// Host-speed calibration. The shared 4-core hosts this benchmark runs on
/// drift in speed by up to 2x over minutes, in step for every process on
/// the machine. A fixed kernel, which is part of the benchmark and never
/// of the compiler, is timed between passes; every reported duration is
/// scaled by NominalMs / (the kernel's median time in this run). Durations
/// are therefore "milliseconds on a host where the kernel takes
/// NominalMs", and a change to the compiler moves them while a change in
/// host speed largely does not. Raw values are printed alongside.
///
//===----------------------------------------------------------------------===//

#ifndef RCBENCH_CALIBRATION_H
#define RCBENCH_CALIBRATION_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcbench {

class Calibration {
public:
  /// The kernel's median time on the reference host (Intel Xeon
  /// 2.1 GHz KVM guest, GCC 12 -O3), in milliseconds.
  static constexpr double NominalMs = 20.0;

  Calibration();

  /// Times the kernel once.
  void sample();

  double medianMs() const;
  size_t samples() const { return Ms.size(); }
  /// Multiply a measured duration by this (divide a rate by it).
  double factor() const;

private:
  std::vector<uint64_t> Keys;
  std::vector<uint64_t> Sorted;
  std::vector<uint64_t> Table;
  std::vector<double> Ms;
  uint64_t Sink = 0;
};

} // namespace rcbench

#endif // RCBENCH_CALIBRATION_H
