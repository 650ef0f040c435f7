// Compile-fail fixture: a header that only compiles if its includer
// happened to pull in <cstdint> and <vector> first. Compiled as its own
// translation unit, it must fail.

#ifndef CNSIM_TESTS_COMPILE_FAIL_HEADER_STANDALONE_HH
#define CNSIM_TESTS_COMPILE_FAIL_HEADER_STANDALONE_HH

inline std::uint64_t
firstOrZero(const std::vector<std::uint64_t> &v)
{
    return v.empty() ? 0 : v.front();
}

#endif // CNSIM_TESTS_COMPILE_FAIL_HEADER_STANDALONE_HH
