/**
 * @file
 * A self-contained virtual-switch shard.
 *
 * Benches and examples used to assemble a simulated machine by hand
 * (SimMemory + MemoryHierarchy + HaloSystem + CoreModel) and then wire
 * a timed VirtualSwitch over it. SwitchShard packages that setup behind
 * one configuration struct so any simulator harness can build a
 * private datapath shard from an externally owned SimMemory without
 * repeating the wiring. Runtime workers do not use it: they classify on
 * a functional VirtualSwitch with no simulated machine at all.
 *
 * The shard owns the timing-side components (hierarchy, optional HALO
 * complex, core model) and the timed VirtualSwitch itself; the
 * functional memory is passed in so the caller controls its lifetime
 * and capacity.
 */

#ifndef HALO_VSWITCH_SHARD_HH
#define HALO_VSWITCH_SHARD_HH

#include <memory>

#include "core/halo_system.hh"
#include "cpu/core_model.hh"
#include "mem/hierarchy.hh"
#include "vswitch/shard_config.hh"
#include "vswitch/vswitch.hh"

namespace halo {

/**
 * One virtual switch plus the simulated machine it runs on.
 */
class SwitchShard
{
  public:
    /** @param memory Externally owned simulated memory backing every
     *                functional structure of this shard. */
    SwitchShard(SimMemory &memory, const ShardConfig &config);

    SwitchShard(const SwitchShard &) = delete;
    SwitchShard &operator=(const SwitchShard &) = delete;

    /** Install MegaFlow rules, optionally pre-warming the tables into
     *  the simulated LLC (paper SS5.2 warmup). */
    void install(const RuleSet &rules, bool warm_tables = true);

    VirtualSwitch &vswitch() { return vs; }
    const VirtualSwitch &vswitch() const { return vs; }
    MemoryHierarchy &hierarchy() { return hier; }
    CoreModel &core() { return coreModel; }

    /** Null when the shard was built without HALO. */
    HaloSystem *halo() { return haloSys.get(); }

  private:
    MemoryHierarchy hier;
    std::unique_ptr<HaloSystem> haloSys;
    CoreModel coreModel;
    VirtualSwitch vs;
};

} // namespace halo

#endif // HALO_VSWITCH_SHARD_HH
