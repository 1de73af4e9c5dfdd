//===- types/Auction.cpp - Auction WRDT ---------------------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/Auction.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::size_t AuctionState::hashValue() const {
  std::size_t H = 0x5be0cd19;
  for (Value V : Open)
    H = hashCombine(H, std::hash<Value>()(V));
  H = hashCombine(H, 0x2a);
  for (const auto &[A, W] : Closed) {
    H = hashCombine(H, std::hash<Value>()(A));
    H = hashCombine(H, std::hash<Value>()(W));
  }
  H = hashCombine(H, 0x3c);
  for (const auto &[A, Amt] : Bids) {
    H = hashCombine(H, std::hash<Value>()(A));
    H = hashCombine(H, std::hash<Value>()(Amt));
  }
  return H;
}

std::string AuctionState::str() const {
  std::ostringstream OS;
  OS << "auction{open:";
  for (Value V : Open)
    OS << V << ' ';
  OS << "closed:";
  for (const auto &[A, W] : Closed)
    OS << A << "->" << W << ' ';
  OS << "bids:";
  for (const auto &[A, Amt] : Bids)
    OS << '(' << A << ',' << Amt << ')';
  OS << '}';
  return OS.str();
}

Auction::Auction() : Spec(4) {
  Methods[Open] = MethodInfo{"open", MethodKind::Update, 1};
  Methods[Bid] = MethodInfo{"bid", MethodKind::Update, 2};
  Methods[Close] = MethodInfo{"close", MethodKind::Update, 1};
  Methods[Winner] = MethodInfo{"winner", MethodKind::Query, 1};
  Spec.setQuery(Winner);
  // close() does not S-commute with open() (re-opening) or with bid()
  // (a late bid can beat the recorded winner); the component pulls all
  // three into one synchronization group, where the leader's order also
  // enforces bid-after-open.
  Spec.addConflict(Open, Close);
  Spec.addConflict(Bid, Close);
  Spec.finalize();
}

const MethodInfo &Auction::method(MethodId M) const {
  assert(M < 4);
  return Methods[M];
}

StatePtr Auction::initialState() const {
  return std::make_unique<AuctionState>();
}

bool Auction::invariant(const ObjectState &S) const {
  const auto &St = static_cast<const AuctionState &>(S);
  for (Value A : St.Open)
    if (St.Closed.count(A))
      return false; // Never both open and closed.
  for (const auto &[A, Amt] : St.Bids) {
    if (!St.Open.count(A) && !St.Closed.count(A))
      return false; // Bids reference known auctions.
    auto It = St.Closed.find(A);
    if (It != St.Closed.end() && Amt > It->second)
      return false; // No bid may beat a recorded winner.
  }
  return true;
}

void Auction::apply(ObjectState &S, const Call &C) const {
  auto &St = static_cast<AuctionState &>(S);
  switch (C.Method) {
  case Open:
    assert(C.Args.size() == 1);
    St.Open.insert(C.Args[0]);
    return;
  case Bid:
    assert(C.Args.size() == 2);
    St.Bids.insert({C.Args[0], C.Args[1]});
    return;
  case Close: {
    assert(C.Args.size() == 1);
    Value A = C.Args[0];
    if (!St.Open.count(A))
      return; // Closing a non-open auction is a no-op.
    St.Open.erase(A);
    Value Best = 0;
    for (auto It = St.Bids.lower_bound({A, INT64_MIN});
         It != St.Bids.end() && It->first == A; ++It)
      Best = std::max(Best, It->second);
    St.Closed[A] = Best;
    return;
  }
  default:
    assert(false && "apply() on a non-update method");
  }
}

Value Auction::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Winner && C.Args.size() == 1);
  const auto &St = static_cast<const AuctionState &>(S);
  auto It = St.Closed.find(C.Args[0]);
  if (It != St.Closed.end())
    return It->second;
  Value Best = 0;
  for (auto BidIt = St.Bids.lower_bound({C.Args[0], INT64_MIN});
       BidIt != St.Bids.end() && BidIt->first == C.Args[0]; ++BidIt)
    Best = std::max(Best, BidIt->second);
  return Best;
}

Call Auction::randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                               sim::Rng &R) const {
  switch (M) {
  case Bid:
    return Call(Bid, {R.uniformInt(0, 3), R.uniformInt(1, 9)}, Issuer,
                Req);
  case Winner:
  case Open:
  case Close:
  default:
    return Call(M, {R.uniformInt(0, 3)}, Issuer, Req);
  }
}

std::vector<Call> Auction::enumerateCalls(MethodId M, unsigned Bound) const {
  if (M == Winner)
    return ObjectType::enumerateCalls(M, Bound);
  // Two auction ids; bid amounts 1..2 expose the winner-recording
  // asymmetry (a late higher bid vs. a recorded lower winner).
  if (M == Bid)
    return {Call(Bid, {0, 1}), Call(Bid, {0, 2}), Call(Bid, {1, 1}),
            Call(Bid, {1, 2})};
  return {Call(M, {0}), Call(M, {1})};
}
