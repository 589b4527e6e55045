# Writes OUT as a header defining HALO_GIT_SHA: the short commit of SRC,
# suffixed "-dirty" when the work tree has changes. Run at build time
# (src/obs/CMakeLists.txt), and rewrites OUT only when the text changes,
# so meta.cc recompiles after a commit or edit and at no other time.
execute_process(
    COMMAND git rev-parse --short=12 HEAD
    WORKING_DIRECTORY ${SRC}
    OUTPUT_VARIABLE sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
if(NOT sha)
    set(sha "unknown")
endif()
execute_process(
    COMMAND git status --porcelain
    WORKING_DIRECTORY ${SRC}
    OUTPUT_VARIABLE dirty
    ERROR_QUIET)
if(dirty)
    set(sha "${sha}-dirty")
endif()
set(text "#define HALO_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUT})
    file(READ ${OUT} old)
endif()
if(NOT "${old}" STREQUAL "${text}")
    file(WRITE ${OUT} "${text}")
endif()
