#ifndef DIME_COMMON_THREADS_H_
#define DIME_COMMON_THREADS_H_

/// \file threads.h
/// The single thread-count resolution rule for the whole tree. Every
/// binary and engine that used to call std::thread::hardware_concurrency()
/// its own way routes through ResolveThreadCount so the precedence is the
/// same everywhere:
///
///   1. an explicit request (a --threads flag, an options field) wins;
///   2. otherwise the DIME_THREADS environment variable, if set to a
///      positive integer;
///   3. otherwise std::thread::hardware_concurrency();
///   4. never less than 1.

namespace dime {

/// The largest thread count accepted from outside the program: a
/// --threads or --workers flag, or DIME_THREADS.
inline constexpr unsigned kMaxThreads = 4096;

/// Resolves a requested thread count (0 = "pick for me") to a concrete
/// positive count using the precedence above.
unsigned ResolveThreadCount(unsigned requested);

}  // namespace dime

#endif  // DIME_COMMON_THREADS_H_
