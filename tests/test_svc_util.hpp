// Helpers for the backend-parameterized svc test suites. Kept out of
// test_util.hpp so the core-layer tests don't pick up a dependency on the
// svc headers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cnet/svc/backend.hpp"

namespace cnet::test {

// gtest-safe suffix ("central_atomic", ...) for suites parameterized over
// every counter backend kind.
inline std::string backend_param_name(
    const ::testing::TestParamInfo<svc::BackendKind>& pinfo) {
  std::string name = svc::backend_kind_name(pinfo.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// Same for full backend specs ("elim_central_atomic", ...).
inline std::string backend_spec_param_name(
    const ::testing::TestParamInfo<svc::BackendSpec>& pinfo) {
  std::string name = svc::backend_spec_name(pinfo.param);
  std::replace(name.begin(), name.end(), '-', '_');
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

// Every kind plain and behind the elimination front-end — the axis for
// suites that must cover "all backends including elim+".
inline std::vector<svc::BackendSpec> all_pool_backend_specs() {
  std::vector<svc::BackendSpec> specs;
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    specs.push_back({kind, false});
    specs.push_back({kind, true});
  }
  return specs;
}

}  // namespace cnet::test
