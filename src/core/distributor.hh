/**
 * @file
 * Query distributor in the on-chip interconnect (paper SS4.3).
 *
 * Routes each lookup query to an accelerator. The paper's policy hashes
 * the table address — reusing the interconnect logic that already
 * distributes memory accesses across LLC slices — and honors a per-
 * accelerator busy bit: a saturated accelerator receives no new queries
 * until a scoreboard slot frees.
 */

#ifndef HALO_CORE_DISTRIBUTOR_HH
#define HALO_CORE_DISTRIBUTOR_HH

#include <cstdint>

#include "core/halo_config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halo {

/** Picks the accelerator for each query. */
class QueryDistributor
{
  public:
    QueryDistributor(unsigned num_slices, DispatchPolicy policy);

    /** Target accelerator for a query. */
    SliceId route(Addr table_addr, Addr key_addr);

    DispatchPolicy policy() const { return policy_; }

    StatGroup &stats() { return statGroup; }

  private:
    unsigned slices;
    DispatchPolicy policy_;
    unsigned rrNext = 0;
    StatGroup statGroup;
    Counter &routed;
};

} // namespace halo

#endif // HALO_CORE_DISTRIBUTOR_HH
