// Clang Thread Safety Analysis (TSA) capability annotations, wrapped in
// BCFL_* macros that expand to nothing on compilers without the analysis
// (gcc builds the same tree warning-free). Applied to every mutex-guarded
// structure so lock discipline is a *compile-time* guarantee — a missing
// lock acquisition is a -Wthread-safety build break under the
// BCFL_THREAD_SAFETY CMake configuration, not a flaky TSan repro.
//
// The macro set mirrors the naming in the official clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); the full table
// with usage guidance lives in docs/development.md. Annotate with the
// BCFL_* spellings only — raw __attribute__((guarded_by(...))) would
// break the gcc build.
#pragma once

#if defined(__clang__)
#define BCFL_TSA(x) __attribute__((x))
#else
#define BCFL_TSA(x)  // no-op: TSA is a clang-only analysis
#endif

/// Marks a type as a lockable capability ("mutex", "role", ...). The
/// argument names the capability kind in diagnostics.
#define BCFL_CAPABILITY(x) BCFL_TSA(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases
/// a capability (common::MutexLock).
#define BCFL_SCOPED_CAPABILITY BCFL_TSA(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define BCFL_GUARDED_BY(x) BCFL_TSA(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define BCFL_PT_GUARDED_BY(x) BCFL_TSA(pt_guarded_by(x))

/// Function that must be called WITH the capability held (the `*_locked()`
/// private-helper convention).
#define BCFL_REQUIRES(...) BCFL_TSA(requires_capability(__VA_ARGS__))

/// Function that acquires the capability and holds it on return.
#define BCFL_ACQUIRE(...) BCFL_TSA(acquire_capability(__VA_ARGS__))

/// Function that acquires the capability only when returning the given
/// value (e.g. try_lock() BCFL_TRY_ACQUIRE(true)).
#define BCFL_TRY_ACQUIRE(...) BCFL_TSA(try_acquire_capability(__VA_ARGS__))

/// Function that releases a capability the caller holds.
#define BCFL_RELEASE(...) BCFL_TSA(release_capability(__VA_ARGS__))

/// Function that must be called WITHOUT the capability held (deadlock
/// guard: it acquires the capability itself).
#define BCFL_EXCLUDES(...) BCFL_TSA(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the capability that guards its
/// result (accessor pattern).
#define BCFL_RETURN_CAPABILITY(x) BCFL_TSA(lock_returned(x))

/// Escape hatch: turns the analysis off for one function. Needs a
/// justifying comment, same convention as NOLINT and bcfl-lint allow().
#define BCFL_NO_THREAD_SAFETY_ANALYSIS BCFL_TSA(no_thread_safety_analysis)
