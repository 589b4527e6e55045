#include "obs/meta.hh"

#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

// The CMake build generates this header at build time; a build that
// compiles meta.cc without it (perfbench's) reads "unknown".
#if __has_include("halo_git_sha.hh")
#include "halo_git_sha.hh"
#endif
#ifndef HALO_GIT_SHA
#define HALO_GIT_SHA "unknown"
#endif
#ifndef HALO_BUILD_TYPE
#define HALO_BUILD_TYPE "unknown"
#endif
#ifndef HALO_CXX_FLAGS
#define HALO_CXX_FLAGS ""
#endif

namespace halo::obs {

namespace {

std::string
hostName()
{
#if defined(__unix__) || defined(__APPLE__)
    char buf[256];
    if (gethostname(buf, sizeof(buf)) == 0) {
        buf[sizeof(buf) - 1] = '\0';
        return buf;
    }
#endif
    return "unknown";
}

} // namespace

void
writeMetaBlock(JsonWriter &j)
{
    j.key("meta").beginObject();
    j.kv("git_sha", HALO_GIT_SHA);
    j.kv("compiler", __VERSION__);
    j.kv("build_type", HALO_BUILD_TYPE);
    j.kv("cxx_flags", HALO_CXX_FLAGS);
    j.kv("hostname", std::string_view(hostName()));
    j.endObject();
}

} // namespace halo::obs
