/**
 * @file
 * State-coverage annotations checked by nord-lint.
 *
 * Every non-static data member of a checkpointable class (anything that
 * derives from Clocked or declares serializeState) must either appear in
 * that class's serializeState() walk or carry an explicit exclusion:
 *
 * @code
 *   NORD_STATE_EXCLUDE(perf_counter,
 *       "diagnostics only; skip-on and skip-off kernels must hash equal")
 *   std::uint64_t tickedTotal_ = 0;
 * @endcode
 *
 * The macro expands to nothing -- it is a machine-readable marker for the
 * static analyzer (src/verify/statecheck/), which binds each annotation to
 * the NEXT member declaration that follows it. An annotation that binds to
 * nothing is itself a finding (dangling-exclude), so stale markers cannot
 * accumulate.
 *
 * Categories, each with its own statically-enforced legality rule:
 *
 *  - cache: derived state rebuilt from serialized state (memoized scans,
 *    free lists, active lists). Must be written somewhere in the class --
 *    a never-written "cache" is configuration and must say so.
 *  - stat: observational counters whose loss on restore is acceptable by
 *    design. Only legal in classes that do serialize the rest of their
 *    state (a class that serializes nothing is not a component keeping
 *    side statistics; exclude it as cache or config instead).
 *  - perf_counter: bookkeeping of the performance infrastructure itself
 *    (kernel skip counters, arena footprint stats). Only legal under
 *    src/sim/ and src/common/ -- anywhere else it is a smell that real
 *    component state is being waved through.
 *  - config: wiring and configuration fixed at construction time
 *    (component pointers, topology handles, toggles set between runs).
 *    Must never be mutated on the tick path; nord-lint cross-checks
 *    this against its mutation analysis of tick() and everything tick()
 *    calls.
 *
 * Every category is additionally proven at runtime by the annotation-
 * truthing differential tests (tests/test_statecheck.cc): each excluded
 * member is perturbed on a live NocSystem and stateHash() must not move,
 * and a save/load/re-save round trip must reproduce the checkpoint
 * payload byte-for-byte -- so the static model can never drift from
 * runtime reality.
 */

#ifndef NORD_COMMON_STATE_ANNOTATIONS_HH
#define NORD_COMMON_STATE_ANNOTATIONS_HH

/**
 * Mark the next data member as deliberately excluded from the
 * serializeState() walk. @p category is one of cache, stat, perf_counter,
 * config; @p reason is a string literal explaining why exclusion is safe.
 */
#define NORD_STATE_EXCLUDE(category, reason)

#endif  // NORD_COMMON_STATE_ANNOTATIONS_HH
