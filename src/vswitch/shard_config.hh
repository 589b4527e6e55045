/**
 * @file
 * Configuration of one timed switch shard (vswitch/shard.hh): the
 * simulated machine it runs on plus its datapath configuration.
 */

#ifndef HALO_VSWITCH_SHARD_CONFIG_HH
#define HALO_VSWITCH_SHARD_CONFIG_HH

#include "core/halo_config.hh"
#include "mem/hierarchy.hh"
#include "vswitch/vswitch.hh"

namespace halo {

/** Everything needed to stand up one switch shard. */
struct ShardConfig
{
    HierarchyConfig hierarchy;
    /// Core the shard's datapath thread is modeled on.
    CoreId coreId = 0;
    /// Attach a per-shard HALO accelerator complex (required for the
    /// HaloBlocking/HaloNonBlocking/Hybrid lookup modes).
    bool useHalo = false;
    HaloConfig halo;
    /// Full datapath configuration.
    VSwitchConfig vswitch;
};

} // namespace halo

#endif // HALO_VSWITCH_SHARD_CONFIG_HH
