#ifndef SCIBORQ_UTIL_LOG_H_
#define SCIBORQ_UTIL_LOG_H_

#include <string>

namespace sciborq {

/// Minimal leveled logger for the long-running binaries: one timestamped
/// line per call, `[2026-01-02T03:04:05.678Z] LEVEL message`, flushed to
/// stderr (INFO included — the smoke jobs capture a single interleaved
/// stream). The severity floor defaults to INFO; messages below it are
/// dropped before formatting.
///
/// Library code reports failures through Status, not logging — these calls
/// belong in tools/ (boot, recovery, shutdown narration) where a human or a
/// smoke-test grep is the consumer. The one library exception is a failure
/// that follows an operation already reported as done (the checkpoint after
/// an acknowledged ingest), which has no Status left to travel in.
enum class LogLevel { kInfo = 0, kWarn = 1, kError = 2 };

void SetLogLevel(LogLevel floor);

void LogInfo(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void LogWarn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void LogError(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The timestamp prefix used by the logger, e.g. "2026-01-02T03:04:05.678Z"
/// (UTC wall clock). Exposed for tests.
std::string LogTimestamp();

}  // namespace sciborq

#endif  // SCIBORQ_UTIL_LOG_H_
