# Fails when a document, or a comment or string in the C++ sources under
# src/, tests/ and examples/, names a bench_* target that
# bench/CMakeLists.txt does not define, so a deleted benchmark cannot
# linger in the docs or the code. perfbench/ is not scanned.
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

file(GLOB_RECURSE sources RELATIVE "${REPO}"
     "${REPO}/src/*.h" "${REPO}/src/*.cpp"
     "${REPO}/tests/*.h" "${REPO}/tests/*.cpp"
     "${REPO}/examples/*.h" "${REPO}/examples/*.cpp")
set(stale "")
set(docs "")
foreach(doc README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
  list(APPEND docs "${doc}")
endforeach()
foreach(doc IN LISTS docs sources)
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
          "docs or sources name bench targets that bench/CMakeLists.txt "
          "does not define:\n  ${report}")
endif()
list(LENGTH targets count)
list(LENGTH docs documents)
list(LENGTH sources scanned)
message(STATUS "doc_bench_refs: every bench_* reference in ${documents} "
               "docs and ${scanned} sources names one of ${count} targets")
