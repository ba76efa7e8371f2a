// SPDX-License-Identifier: MIT
//
// Test helper: the protocol driver (net/driver.h) serving a deployment over
// a fresh simulated fleet (net/sim_transport.h), staged on construction.

#pragma once

#include <utility>

#include "common/check.h"
#include "core/pipeline.h"
#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/coordinator.h"

namespace scec {

struct SimDriver {
  SimDriver(const Deployment<double>& deployment, const Matrix<double>& a,
            const DeviceFleet& fleet, net::SimTransportOptions sim = {},
            net::NetCoordinatorOptions options = recovery::SimDriverOptions())
      : session(DeploymentSession<double>::Adopt(deployment)),
        transport(fleet.devices(), std::move(sim)),
        driver(session, a, fleet, std::move(options)) {
    const Status setup = driver.Setup(&transport);
    SCEC_CHECK(setup.ok()) << setup;
  }
  // The driver points at `session` and `transport`: never copied or moved
  // (a prvalue return is elided, so factories still work).
  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  DeploymentSession<double> session;
  net::SimTransport transport;
  net::NetCoordinator driver;
};

}  // namespace scec
