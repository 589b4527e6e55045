/**
 * @file
 * Build/host provenance block for bench artifacts.
 *
 * Every BENCH_*.json carries a "meta" object stating exactly which
 * build produced it — git revision, compiler, build type, flags and
 * hostname — so a result file found on disk months later can be traced
 * back to its code and machine instead of being guessed at. The git
 * SHA is taken at build time, so a rebuild after a commit refreshes it;
 * a dirty tree is flagged with a "-dirty" suffix.
 */

#ifndef HALO_OBS_META_HH
#define HALO_OBS_META_HH

#include "obs/json.hh"

namespace halo::obs {

/**
 * Emit `"meta": { git_sha, compiler, build_type, cxx_flags,
 * hostname }` into @p j. The writer must be positioned inside an
 * object (a key is written first).
 */
void writeMetaBlock(JsonWriter &j);

} // namespace halo::obs

#endif // HALO_OBS_META_HH
