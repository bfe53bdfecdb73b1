#include "common/interrupt.hpp"

#include <csignal>

namespace amdmb {

namespace {

// Written from the handler: must be lock-free / async-signal-safe.
volatile std::sig_atomic_t g_signal = 0;
std::atomic<std::atomic<bool>*> g_notify{nullptr};

extern "C" void RecordSignal(int signal_number) {
  g_signal = signal_number;
  if (std::atomic<bool>* flag = g_notify.load(std::memory_order_relaxed)) {
    flag->store(true, std::memory_order_relaxed);
  }
}

}  // namespace

void InstallInterruptHandlers() {
  std::signal(SIGINT, RecordSignal);
  std::signal(SIGTERM, RecordSignal);
}

void NotifyFlagOnInterrupt(std::atomic<bool>* flag) {
  g_notify.store(flag, std::memory_order_relaxed);
}

bool InterruptRequested() { return g_signal != 0; }

int InterruptSignal() { return static_cast<int>(g_signal); }

const char* DescribeSignal(int signal_number) {
  switch (signal_number) {
    case SIGINT: return "SIGINT";
    case SIGTERM: return "SIGTERM";
    default: return "signal";
  }
}

}  // namespace amdmb
