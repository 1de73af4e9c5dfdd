//===- hamband/types/Auction.h - Auction WRDT -------------------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The auction use-case of Hamsaz [39], the paper's predecessor analysis:
/// auctions are opened, receive bids, and are closed with the highest
/// bidder winning. The integrity property is that bids reference known
/// auctions and that no closed auction has a bid above its recorded
/// winner -- so close() S- and P-conflicts with both open() and bid(),
/// putting all three update methods in one synchronization group, while
/// the winner query stays local. Unlike the relational schemata, the
/// conflicting group here has no cascade structure, which makes it a
/// distinct stress of the consensus path.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_AUCTION_H
#define HAMBAND_TYPES_AUCTION_H

#include "hamband/core/ObjectType.h"

#include <map>
#include <set>
#include <utility>

namespace hamband {
namespace types {

/// State: open auctions, closed auctions with their winning amount, and
/// the recorded bids.
struct AuctionState : StateBase<AuctionState> {
  std::set<Value> Open;
  std::map<Value, Value> Closed; // auction -> winning amount
  std::set<std::pair<Value, Value>> Bids; // (auction, amount)

  bool operator==(const AuctionState &O) const {
    return Open == O.Open && Closed == O.Closed && Bids == O.Bids;
  }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Auction: open(a), bid(a, amt), close(a) [one synchronization group],
/// winner(a) [query: winning/leading amount].
class Auction : public ObjectType {
public:
  static constexpr MethodId Open = 0;
  static constexpr MethodId Bid = 1;
  static constexpr MethodId Close = 2;
  static constexpr MethodId Winner = 3;

  Auction();

  std::string name() const override { return "auction"; }
  unsigned numMethods() const override { return 4; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override;

private:
  CoordinationSpec Spec;
  MethodInfo Methods[4];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_AUCTION_H
