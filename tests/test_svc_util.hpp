// Helpers for the backend-parameterized svc test suites. Kept out of
// test_util.hpp so the core-layer tests don't pick up a dependency on the
// svc headers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cnet/svc/backend.hpp"
#include "cnet/util/scatter.hpp"

namespace cnet::test {

// gtest-safe suffix ("central_atomic", ...) for suites parameterized over
// every counter backend kind.
inline std::string backend_param_name(
    const ::testing::TestParamInfo<svc::BackendKind>& pinfo) {
  std::string name = svc::backend_kind_name(pinfo.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// Every shape util::counting_shape_for can pick, C(w, w·lg w) for w = 2, 4
// and 8, so each host covers the shapes every other host builds.
inline constexpr util::CountingShape kRuleShapes[] = {{2, 2}, {4, 8}, {8, 24}};

inline svc::BackendConfig shape_config(util::CountingShape shape) {
  return {.width_in = shape.width_in, .width_out = shape.width_out};
}

// gtest-safe suffix ("C4_8", ...) for suites parameterized over shapes.
inline std::string shape_param_name(
    const ::testing::TestParamInfo<util::CountingShape>& pinfo) {
  return "C" + std::to_string(pinfo.param.width_in) + "_" +
         std::to_string(pinfo.param.width_out);
}

// "C(w,t)", as a network counter names its shape.
inline std::string shape_label(util::CountingShape shape) {
  return "C(" + std::to_string(shape.width_in) + "," +
         std::to_string(shape.width_out) + ")";
}

}  // namespace cnet::test
