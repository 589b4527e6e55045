#include "obs/stage.hh"

#include "sim/logging.hh"

namespace halo::obs {

constinit thread_local StageRecorders tlsStageRecorders;

const char *
stageName(std::uint16_t id)
{
    HALO_ASSERT(id < numStages, "stage id out of range");
    // The table holds string literals, so data() is NUL-terminated.
    return kStageNames[id].data();
}

} // namespace halo::obs
