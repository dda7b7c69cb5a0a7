# Build file of the end-to-end benchmark driver. It is injected into the
# project's own configure step, so the driver compiles and links exactly
# like the project's own targets:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/driver.cmake
#   cmake --build .bench_build --target flsa_perfbench -j4
#
# perfbench/run.py does exactly this before every run. CMake includes this
# file at the end of the root project() call, before the root CMakeLists
# sets its language standard, warnings and sanitizer options, so the
# target is declared when the root directory has been processed.
set(FLSA_PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(flsa_perfbench_add_driver)
  add_executable(flsa_perfbench EXCLUDE_FROM_ALL
    ${FLSA_PERFBENCH_DIR}/main.cpp
    ${FLSA_PERFBENCH_DIR}/common.cpp
    ${FLSA_PERFBENCH_DIR}/align_long.cpp
    ${FLSA_PERFBENCH_DIR}/serve_short.cpp
    ${FLSA_PERFBENCH_DIR}/search_ref.cpp
  )
  target_compile_definitions(flsa_perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  target_link_libraries(flsa_perfbench PRIVATE flsa::flsa flsa_warnings)
endfunction()

cmake_language(DEFER CALL flsa_perfbench_add_driver)
