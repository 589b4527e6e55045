/**
 * @file
 * Upcall requests: what workers offload to the revalidator.
 *
 * In the decoupled slow path (OVS's handler/revalidator split applied
 * to this runtime) a data-path worker never mutates classification
 * state. On a megaflow miss it enqueues a request — "resolve this
 * tuple against the OpenFlow layer and install a megaflow entry" — and
 * keeps forwarding on the provisional slow-path-pending result.
 */

#ifndef HALO_RUNTIME_UPCALL_HH
#define HALO_RUNTIME_UPCALL_HH

#include <cstdint>

#include "net/headers.hh"

namespace halo {

struct UpcallRequest
{
    /// Shard/worker the request came from (selects the target tables).
    std::uint16_t worker = 0;
    FiveTuple tuple{};
};

} // namespace halo

#endif // HALO_RUNTIME_UPCALL_HH
