// SPDX-License-Identifier: MIT
//
// The CRC-32 moved to common/crc32.h, which new code includes. This path
// and the recovery::Crc32 name stay for the repository benchmark's layer
// table (perfbench/src/layers.cpp), which includes them.

#pragma once

#include "common/crc32.h"

namespace scec::recovery {

using scec::Crc32;

}  // namespace scec::recovery
