# Fails when a document names a bench_* target that bench/CMakeLists.txt
# does not define, so a deleted benchmark cannot linger in the docs.
#
#   cmake -DREPO=<source dir> -P tests/doc_bench_refs.cmake
#
# A name counts as a reference when it is not glued to a preceding word,
# dot or dash (".bench_build/" is a directory, not a target). A trailing
# "_smoke" names the target's ctest case, and "bench_smoke" alone is the
# ctest label.
if(NOT REPO)
  message(FATAL_ERROR "usage: cmake -DREPO=<source dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

file(READ "${REPO}/bench/CMakeLists.txt" bench_cmake)
string(REGEX MATCHALL "\nunify_add_bench\\((bench_[a-z0-9_]+)" added
       "${bench_cmake}")
set(targets "")
foreach(line IN LISTS added)
  string(REGEX REPLACE ".*\\(" "" name "${line}")
  list(APPEND targets "${name}")
endforeach()
if(NOT targets)
  message(FATAL_ERROR "no unify_add_bench() target found in bench/CMakeLists.txt")
endif()

set(stale "")
foreach(doc README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
  file(READ "${REPO}/${doc}" text)
  string(REGEX MATCHALL "(^|[^A-Za-z0-9_.-])bench_[a-z0-9_]+" refs
         "\n${text}")
  foreach(ref IN LISTS refs)
    string(REGEX REPLACE "^[^b]" "" name "${ref}")
    string(REGEX REPLACE "_smoke$" "" name "${name}")
    if(name STREQUAL "bench")
      continue()
    endif()
    list(FIND targets "${name}" at)
    if(at EQUAL -1)
      list(APPEND stale "${doc}: ${name}")
    endif()
  endforeach()
endforeach()

if(stale)
  list(REMOVE_DUPLICATES stale)
  string(REPLACE ";" "\n  " report "${stale}")
  message(FATAL_ERROR
          "docs name bench targets that bench/CMakeLists.txt does not "
          "define:\n  ${report}")
endif()
list(LENGTH targets count)
message(STATUS "doc_bench_refs: every bench_* reference names one of "
               "${count} targets")
