//===- hamband/hamband.h - Umbrella header ----------------------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella header: pulls in the public API of every module.
/// Fine-grained headers are preferred in library code; applications and
/// examples can just include this one.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_HAMBAND_H
#define HAMBAND_HAMBAND_H

#include "hamband/baselines/MsgCrdtRuntime.h"
#include "hamband/baselines/MuSmrRuntime.h"
#include "hamband/benchlib/Runner.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/core/Verifier.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/semantics/Refinement.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/GSet.h"
#include "hamband/types/LWWRegister.h"
#include "hamband/types/Movie.h"
#include "hamband/types/ORSet.h"
#include "hamband/types/Schema.h"
#include "hamband/types/ShoppingCart.h"

#endif // HAMBAND_HAMBAND_H
