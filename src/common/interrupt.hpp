// Cooperative SIGINT/SIGTERM handling for the long-running binaries.
//
// The bench binaries and amdmb_report install these handlers so an
// interrupt no longer kills the process mid-write (leaving a truncated
// BENCH_*.json): the handler only records the signal, and the main
// loop checks InterruptRequested() at safe points — between curves,
// before outputs are written — to cut the run short and still emit a
// complete (if partial) report carrying an "interrupted" finding.
//
// The amdmb_serve daemon does NOT use this module: its SIGTERM contract
// is graceful drain (finish in-flight sweeps), which it wires through
// its own handler in tools/amdmb_serve.cpp.
#pragma once

#include <atomic>

namespace amdmb {

/// Installs SIGINT and SIGTERM handlers that record the signal instead
/// of terminating. Idempotent.
void InstallInterruptHandlers();

/// Registers one extra flag the handler also stores `true` to (a relaxed
/// store on a lock-free std::atomic<bool> is async-signal-safe). This is
/// how an exec::CancelToken fires from the handler without a
/// common -> exec dependency. The flag must outlive the registration;
/// nullptr unregisters.
void NotifyFlagOnInterrupt(std::atomic<bool>* flag);

/// True once a SIGINT/SIGTERM arrived after InstallInterruptHandlers().
bool InterruptRequested();

/// The last recorded signal number (SIGINT/SIGTERM), or 0 when none.
int InterruptSignal();

/// Signal name for the interrupted finding ("SIGINT" / "SIGTERM" /
/// "signal <n>").
const char* DescribeSignal(int signal_number);

}  // namespace amdmb
