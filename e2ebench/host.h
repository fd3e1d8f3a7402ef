// Host measurement helpers of the end-to-end benchmark: clocks, /proc
// readers, order statistics, and the calibration loop that defines the
// `cal` time unit. Nothing here calls engine code.
#pragma once

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ClockMs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// CPU time of every thread of this process.
inline double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread.
inline double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of reaped child processes (the JIT's host-compiler runs).
inline double ChildrenCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Process CPU plus reaped children: what one query costs the host.
inline double TotalCpuMs() { return ProcessCpuMs() + ChildrenCpuMs(); }

/// One "Key:   value kB" field of /proc/self/status, or -1.
inline long ProcStatusField(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return -1;
}

inline int ThreadCount() { return static_cast<int>(ProcStatusField("Threads")); }
inline double PeakRssMb() {
  return static_cast<double>(ProcStatusField("VmHWM")) / 1024.0;
}

/// The 1-minute load average.
inline double LoadAvg1() {
  double v = -1;
  if (FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &v) != 1) v = -1;
    std::fclose(f);
  }
  return v;
}

inline std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Block until every background thread the engine started (the JIT's
/// detached tier-upgrade threads) has ended, i.e. the process is back to
/// `idle_threads` threads. Returns false on timeout.
inline bool WaitForThreads(int idle_threads, double timeout_ms = 60'000) {
  const double deadline = NowMs() + timeout_ms;
  while (ThreadCount() > idle_threads) {
    if (NowMs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The `cal` unit: one pass of a fixed integer-streaming loop over ~40 MB
/// of seeded data, run right before each timed query on as many threads
/// as the query keeps busy (the client thread plus helpers). Host-wide
/// slow phases stretch it and the query alike, so a latency divided by its
/// calibration time is far steadier than raw milliseconds. A pass's wall
/// time is that of its slowest thread; its CPU time (the client thread's)
/// is the unit CPU figures are divided by. Each pass also records how much
/// CPU threads OTHER than the calibrating ones burnt meanwhile: the guard
/// that stops an engine change which leaves threads spinning from
/// inflating `cal`.
class Calibrator {
 public:
  Calibrator(uint64_t seed, int threads) : data_(kWords) {
    uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (auto& w : data_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
    for (int t = 1; t < threads; ++t) {
      helpers_.emplace_back([this, t, threads] { HelperLoop(t, threads); });
    }
  }
  ~Calibrator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& h : helpers_) h.join();
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// One calibration pass on every calibrating thread; returns its wall
  /// time in milliseconds.
  double Run() {
    const double proc0 = ProcessCpuMs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++generation_;
      pending_ = helpers_.size();
      helper_ms_ = helper_cpu_ms_ = 0;
    }
    cv_.notify_all();
    double cpu = 0;
    double ms = Pass(0, 1, &cpu);
    double helpers_cpu = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return pending_ == 0; });
      ms = std::max(ms, helper_ms_);
      helpers_cpu = helper_cpu_ms_;
    }
    const double proc = ProcessCpuMs() - proc0;
    own_cpu_ms_ += cpu + helpers_cpu;
    other_cpu_ms_ += std::max(0.0, proc - cpu - helpers_cpu);
    samples_.push_back(ms);
    cpu_samples_.push_back(cpu);
    return ms;
  }

  /// Wall time (ms) of every pass so far.
  const std::vector<double>& samples() const { return samples_; }
  /// Client-thread CPU time (ms) of every pass so far.
  const std::vector<double>& cpu_samples() const { return cpu_samples_; }
  /// Share of process CPU during calibration spent by other threads.
  double OtherThreadShare() const {
    const double total = own_cpu_ms_ + other_cpu_ms_;
    return total > 0 ? other_cpu_ms_ / total : 0;
  }
  int threads() const { return static_cast<int>(helpers_.size()) + 1; }

 private:
  static constexpr size_t kWords = 5'000'000;  // 40 MB of u64
  static constexpr size_t kChunk = 1024;

  /// Stream the data once, starting at this thread's share of it. The
  /// pass is shaped like a vectorized query rather than a tight compute
  /// loop, so it feels the same host contention the engine does: per
  /// 1024-word chunk, a map into an L1-resident vector, then a grouped
  /// sum over 8 groups.
  double Pass(int t, int threads, double* cpu_ms) {
    const double cpu0 = ThreadCpuMs();
    const double t0 = NowMs();
    const size_t start = kWords / static_cast<size_t>(threads) *
                         static_cast<size_t>(t);
    uint64_t vec[kChunk];
    uint64_t groups[8] = {};
    auto stream = [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; c += kChunk) {
        const size_t n = std::min(kChunk, end - c);
        const uint64_t* in = data_.data() + c;
        for (size_t i = 0; i < n; ++i) {
          vec[i] = (in[i] ^ (in[i] >> 7)) * 0x100000001b3ull;
        }
        for (size_t i = 0; i < n; ++i) groups[vec[i] >> 61] += vec[i] >> 32;
      }
    };
    stream(start, kWords);
    stream(0, start);
    const double ms = NowMs() - t0;
    *cpu_ms = ThreadCpuMs() - cpu0;
    uint64_t acc = 0;
    for (uint64_t g : groups) acc ^= g;
    sink_.fetch_xor(acc, std::memory_order_relaxed);
    return ms;
  }

  void HelperLoop(int t, int threads) {
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      double cpu = 0;
      const double ms = Pass(t, threads, &cpu);
      {
        std::lock_guard<std::mutex> lock(mu_);
        helper_ms_ = std::max(helper_ms_, ms);
        helper_cpu_ms_ += cpu;
        --pending_;
      }
      cv_.notify_all();
    }
  }

  std::vector<uint64_t> data_;
  std::atomic<uint64_t> sink_{0};
  double own_cpu_ms_ = 0;
  double other_cpu_ms_ = 0;
  std::vector<double> samples_, cpu_samples_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;     // guarded by mu_
  size_t pending_ = 0;          // guarded by mu_
  double helper_ms_ = 0;        // guarded by mu_
  double helper_cpu_ms_ = 0;    // guarded by mu_
  bool stop_ = false;           // guarded by mu_
  std::vector<std::thread> helpers_;  // last: started after the state above
};

}  // namespace e2e
