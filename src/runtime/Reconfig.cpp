//===- runtime/Reconfig.cpp - Online membership changes ----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/Reconfig.h"

#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/WireFormat.h"
#include "hamband/sim/FaultInjector.h"

#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;

static constexpr std::uint32_t MembershipMagic = 0x4D454D42; // "BMEM"

std::vector<std::uint8_t> runtime::encodeMembership(const Membership &M) {
  ByteWriter W;
  W.u32(MembershipMagic);
  W.u32(M.Epoch);
  W.u32(static_cast<std::uint32_t>(M.Active.size()));
  for (std::uint8_t A : M.Active)
    W.u8(A ? 1 : 0);
  return W.take();
}

bool runtime::decodeMembership(const std::uint8_t *Data, std::size_t Len,
                               Membership &Out) {
  ByteReader R(Data, Len);
  if (R.u32() != MembershipMagic)
    return false;
  Out.Epoch = R.u32();
  std::uint32_t N = R.u32();
  if (!R.ok() || N > R.remaining())
    return false;
  Out.Active.resize(N);
  for (std::uint32_t I = 0; I < N; ++I)
    Out.Active[I] = R.u8();
  return R.ok();
}

std::vector<std::uint8_t> runtime::encodeLoggedCall(const Call &C) {
  ByteWriter W;
  writeCallBlock(W, C);
  return W.take();
}

bool runtime::decodeLoggedCall(const std::uint8_t *Data, std::size_t Len,
                               Call &Out) {
  ByteReader R(Data, Len);
  return readCallBlock(R, Out);
}

std::vector<std::uint8_t>
runtime::encodeTransferImage(const TransferImage &Img) {
  ByteWriter W;
  W.u32(Img.Epoch);
  W.u32(static_cast<std::uint32_t>(Img.Applied.size()));
  W.u32(Img.Applied.empty()
            ? 0
            : static_cast<std::uint32_t>(Img.Applied[0].size()));
  for (const auto &Row : Img.Applied)
    for (std::uint64_t V : Row)
      W.u64(V);
  for (std::uint64_t V : Img.FreeSeqNext)
    W.u64(V);
  W.u32(static_cast<std::uint32_t>(Img.Summaries.size()));
  for (const auto &PerSrc : Img.Summaries) {
    W.u32(static_cast<std::uint32_t>(PerSrc.size()));
    for (const auto &[Seq, Bytes] : PerSrc) {
      W.u64(Seq);
      W.lengthPrefixed(Bytes);
    }
  }
  W.u32(static_cast<std::uint32_t>(Img.ConfNextIndex.size()));
  for (std::uint64_t V : Img.ConfNextIndex)
    W.u64(V);
  W.u32(static_cast<std::uint32_t>(Img.IrreducibleLog.size()));
  for (const auto &Entry : Img.IrreducibleLog)
    W.lengthPrefixed(Entry);
  return W.take();
}

bool runtime::decodeTransferImage(const std::uint8_t *Data, std::size_t Len,
                                  TransferImage &Out) {
  ByteReader R(Data, Len);
  Out.Epoch = R.u32();
  std::uint32_t Nodes = R.u32();
  std::uint32_t Methods = R.u32();
  if (!R.ok() ||
      static_cast<std::uint64_t>(Nodes) * Methods * 8 > R.remaining())
    return false;
  Out.Applied.assign(Nodes, std::vector<std::uint64_t>(Methods, 0));
  for (auto &Row : Out.Applied)
    for (std::uint64_t &V : Row)
      V = R.u64();
  Out.FreeSeqNext.resize(Nodes);
  for (std::uint64_t &V : Out.FreeSeqNext)
    V = R.u64();
  std::uint32_t Groups = R.u32();
  if (!R.ok() || Groups > R.remaining())
    return false;
  Out.Summaries.resize(Groups);
  for (auto &PerSrc : Out.Summaries) {
    std::uint32_t Srcs = R.u32();
    if (!R.ok() || Srcs > R.remaining() / 12 + 1)
      return false;
    PerSrc.resize(Srcs);
    for (auto &[Seq, Bytes] : PerSrc) {
      Seq = R.u64();
      std::span<const std::uint8_t> Image = R.lengthPrefixed();
      if (!R.ok())
        return false;
      Bytes.assign(Image.begin(), Image.end());
    }
  }
  std::uint32_t NConf = R.u32();
  if (!R.ok() || static_cast<std::uint64_t>(NConf) * 8 > R.remaining())
    return false;
  Out.ConfNextIndex.resize(NConf);
  for (std::uint64_t &V : Out.ConfNextIndex)
    V = R.u64();
  std::uint32_t NLog = R.u32();
  if (!R.ok())
    return false;
  Out.IrreducibleLog.clear();
  Out.IrreducibleLog.reserve(NLog);
  for (std::uint32_t I = 0; I < NLog; ++I) {
    std::span<const std::uint8_t> Entry = R.lengthPrefixed();
    if (!R.ok())
      return false;
    Out.IrreducibleLog.emplace_back(Entry.begin(), Entry.end());
  }
  return R.ok();
}

// -- ReconfigManager ---------------------------------------------------------

ReconfigManager::ReconfigManager(HambandCluster &Cluster, Membership Initial,
                                 rdma::RegionKey DataKey)
    : C(Cluster), Current(std::move(Initial)), OldKey(DataKey) {
  unsigned N = C.numNodes();
  NodeSeen = std::make_unique<std::atomic<std::uint8_t>[]>(N);
  NodeIdle = std::make_unique<std::atomic<std::uint8_t>[]>(N);
  NodeDigest = std::make_unique<std::atomic<std::uint64_t>[]>(N);
  for (unsigned I = 0; I < N; ++I) {
    NodeSeen[I].store(0, std::memory_order_relaxed);
    NodeIdle[I].store(0, std::memory_order_relaxed);
    NodeDigest[I].store(0, std::memory_order_relaxed);
  }
}

void ReconfigManager::attachStats(obs::Registry &R) {
  CtrTransitions = &R.counter("reconfig.transitions");
  CtrAborts = &R.counter("reconfig.aborts");
  CtrTransferBytes = &R.counter("reconfig.transfer_bytes");
}

std::vector<rdma::NodeId> ReconfigManager::currentMembers() const {
  std::vector<rdma::NodeId> Out;
  for (rdma::NodeId N = 0; N < C.numNodes(); ++N)
    if (Current.isActive(N))
      Out.push_back(N);
  return Out;
}

std::vector<rdma::NodeId> ReconfigManager::unionMembers() const {
  std::vector<rdma::NodeId> Out;
  for (rdma::NodeId N = 0; N < C.numNodes(); ++N)
    if (Current.isActive(N) || Target.isActive(N))
      Out.push_back(N);
  return Out;
}

bool ReconfigManager::start(std::vector<std::uint8_t> TargetActive,
                            DoneFn DoneCb) {
  unsigned N = C.numNodes();
  if (TargetActive.size() != N)
    return false;
  Membership T;
  T.Epoch = Current.Epoch + 1;
  T.Active = std::move(TargetActive);
  if (T.activeCount() == 0)
    return false;
  unsigned Joiners = 0;
  rdma::NodeId J = ~0u;
  for (rdma::NodeId I = 0; I < N; ++I)
    if (T.isActive(I) && !Current.isActive(I)) {
      ++Joiners;
      J = I;
    }
  if (Joiners > 1)
    return false; // One joiner per transition (its transfer is serial).
  if (InProgress.exchange(true, std::memory_order_acq_rel))
    return false;
  Target = std::move(T);
  Joiner = Joiners == 1 ? J : ~0u;
  Done = std::move(DoneCb);
  NewKey = C.transport().createRegionKey();
  Coord = currentMembers().front();
  ConfNext.assign(C.groupsPerShard(), 0);
  TransferBytes.clear();
  TransferOffset = 0;
  TransferKicked = false;
  TransferDone.store(false, std::memory_order_release);
  JoinerAccum.clear();
  if (CtrTransitions)
    CtrTransitions->add();
  enterStage(StClose);
  scheduleTick();
  return true;
}

void ReconfigManager::noteStage(unsigned S) {
  if (sim::FaultInjector *FI = C.faultInjector())
    FI->onReconfigStage(S, Coord);
}

void ReconfigManager::enterStage(unsigned S) {
  StageId = S;
  DispatchedTo.assign(C.numNodes(), false);
  StableRounds = 0;
  ProbeInFlight = false;
  for (unsigned I = 0; I < C.numNodes(); ++I)
    NodeSeen[I].store(0, std::memory_order_release);
  noteStage(S);
}

void ReconfigManager::scheduleTick() {
  // The tick rides the coordinator's timer wheel so every stage action
  // runs in one execution context; runAfter keeps firing on a crashed
  // coordinator, which is how the abort path still runs.
  C.transport().runAfter(Coord, C.config().Reconfig.TickInterval, [this]() {
    if (!InProgress.load(std::memory_order_acquire))
      return;
    tick();
    if (InProgress.load(std::memory_order_acquire))
      scheduleTick();
  });
}

bool ReconfigManager::dispatchAndSettled(
    const std::vector<rdma::NodeId> &Targets,
    const std::function<void(rdma::NodeId)> &Dispatch) {
  for (rdma::NodeId T : Targets) {
    if (DispatchedTo[T] || !C.transport().isAlive(T))
      continue;
    DispatchedTo[T] = true;
    Dispatch(T);
  }
  for (rdma::NodeId T : Targets)
    if (C.transport().isAlive(T) &&
        NodeSeen[T].load(std::memory_order_acquire) == 0)
      return false;
  return true;
}

void ReconfigManager::tick() {
  if (!C.transport().isAlive(Coord) && StageId <= StTransfer) {
    // The coordinator crashed before any node switched epochs: the only
    // safe continuation from its (still firing) timer is to re-open the
    // old epoch on the survivors.
    abortTransition();
    return;
  }
  switch (StageId) {
  case StClose: {
    bool Settled =
        dispatchAndSettled(currentMembers(), [this](rdma::NodeId T) {
          C.transport().callOn(T, [this, T]() {
            C.node(T).closeEpoch();
            NodeSeen[T].store(1, std::memory_order_release);
          });
        });
    if (Settled)
      enterStage(StDrain);
    break;
  }
  case StDrain:
    runDrainStage();
    break;
  case StFence: {
    // Generalized permission revocation (Mu's leader-change trick, applied
    // to the whole data plane): after this, any straggling write tagged
    // with the old epoch's key completes with AccessError on every node.
    unsigned N = C.numNodes();
    for (rdma::NodeId T = 0; T < N; ++T)
      for (rdma::NodeId W = 0; W < N; ++W)
        if (T != W)
          C.transport().setWritePermission(T, W, OldKey, false);
    enterStage(Joiner != ~0u ? StTransfer : StInstall);
    break;
  }
  case StTransfer:
    runTransferStage();
    break;
  case StInstall: {
    bool Settled =
        dispatchAndSettled(unionMembers(), [this](rdma::NodeId T) {
          std::vector<std::uint8_t> Rec = encodeMembership(Target);
          assert(Rec.size() <= MemoryMap::MembershipSlotBytes);
          if (T == Coord) {
            // The coordinator's own record is a local write.
            C.transport().memory(T).write(C.memoryMap().membershipSlot(),
                                          Rec.data(), Rec.size());
            C.node(T).installMembership(Target, NewKey, ConfNext);
            NodeSeen[T].store(1, std::memory_order_release);
            return;
          }
          C.transport().postWrite(
              Coord, T, C.memoryMap().membershipSlot(), std::move(Rec),
              NewKey,
              [this, T](rdma::WcStatus St) {
                if (St != rdma::WcStatus::Success)
                  return; // Target crashed; settle check skips it.
                C.transport().callOn(T, [this, T]() {
                  C.node(T).installMembership(Target, NewKey, ConfNext);
                  NodeSeen[T].store(1, std::memory_order_release);
                });
              },
              rdma::Transport::LaneClient);
        });
    if (Settled)
      enterStage(StReopen);
    break;
  }
  case StReopen: {
    std::vector<rdma::NodeId> Members;
    for (rdma::NodeId N = 0; N < C.numNodes(); ++N)
      if (Target.isActive(N))
        Members.push_back(N);
    bool Settled = dispatchAndSettled(Members, [this](rdma::NodeId T) {
      C.transport().callOn(T, [this, T]() {
        C.node(T).openEpoch();
        NodeSeen[T].store(1, std::memory_order_release);
      });
    });
    if (Settled) {
      Current = Target;
      OldKey = NewKey;
      finish(true);
    }
    break;
  }
  default:
    break;
  }
}

void ReconfigManager::runDrainStage() {
  // Only updates at live origins can still complete; an update lost at a
  // hard-crashed origin must not wedge the drain.
  if (C.liveUpdatesOutstanding() != 0) {
    StableRounds = 0;
    return;
  }
  unsigned N = C.numNodes();
  if (ProbeInFlight) {
    for (rdma::NodeId T : currentMembers())
      if (C.transport().isAlive(T) &&
          NodeSeen[T].load(std::memory_order_acquire) == 0)
        return; // Round still collecting.
    ProbeInFlight = false;
    bool AllIdle = true, DigestsEqual = true;
    bool HaveFirst = false;
    std::uint64_t First = 0;
    for (rdma::NodeId T : currentMembers()) {
      if (!C.transport().isAlive(T))
        continue;
      if (NodeIdle[T].load(std::memory_order_acquire) == 0)
        AllIdle = false;
      std::uint64_t D = NodeDigest[T].load(std::memory_order_acquire);
      if (!HaveFirst) {
        HaveFirst = true;
        First = D;
      } else if (D != First) {
        DigestsEqual = false;
      }
    }
    if (AllIdle && DigestsEqual && C.liveUpdatesOutstanding() == 0)
      ++StableRounds;
    else
      StableRounds = 0;
    if (StableRounds >= ReconfigConfig::StableProbeRounds) {
      // Every member agrees (the digest covers the L-ring positions);
      // capture the post-transition per-group log indexes from the
      // coordinator replica.
      for (unsigned G = 0; G < ConfNext.size(); ++G)
        ConfNext[G] = C.node(Coord).conf().receivedContig(G);
      enterStage(StFence);
    }
    return;
  }
  // Launch the next probe round.
  ProbeInFlight = true;
  for (unsigned I = 0; I < N; ++I)
    NodeSeen[I].store(0, std::memory_order_release);
  for (rdma::NodeId T : currentMembers()) {
    if (!C.transport().isAlive(T))
      continue;
    C.transport().callOn(T, [this, T]() {
      NodeIdle[T].store(C.node(T).reconfigQuiesced() ? 1 : 0,
                        std::memory_order_release);
      NodeDigest[T].store(C.node(T).reconfigDigest(),
                          std::memory_order_release);
      NodeSeen[T].store(1, std::memory_order_release);
    });
  }
}

void ReconfigManager::runTransferStage() {
  if (!C.transport().isAlive(Joiner)) {
    abortTransition();
    return;
  }
  if (!TransferKicked) {
    TransferKicked = true;
    TransferImage Img = C.node(Coord).buildTransferImage(ConfNext);
    TransferBytes = encodeTransferImage(Img);
    TransferOffset = 0;
    if (CtrTransferBytes)
      CtrTransferBytes->add(TransferBytes.size());
    sendNextChunk();
    return;
  }
  if (TransferDone.load(std::memory_order_acquire))
    enterStage(StInstall);
}

void ReconfigManager::sendNextChunk() {
  if (!InProgress.load(std::memory_order_acquire))
    return;
  if (!C.transport().isAlive(Joiner)) {
    abortTransition();
    return;
  }
  std::size_t Total = TransferBytes.size();
  if (TransferOffset >= Total) {
    // Every chunk is appended on the joiner; decode and install there.
    C.transport().callOn(Joiner, [this]() {
      TransferImage Img;
      bool Ok =
          decodeTransferImage(JoinerAccum.data(), JoinerAccum.size(), Img);
      assert(Ok && "reassembled transfer image is corrupt");
      if (Ok)
        C.node(Joiner).absorbTransfer(Img);
      TransferDone.store(true, std::memory_order_release);
    });
    return;
  }
  std::uint32_t SlotBytes = C.memoryMap().transferSlotBytes();
  assert(SlotBytes > 12 && "transfer slot too small for a chunk header");
  std::size_t MaxPayload = SlotBytes - 12;
  std::uint32_t Off = static_cast<std::uint32_t>(TransferOffset);
  std::uint32_t Len =
      static_cast<std::uint32_t>(std::min(MaxPayload, Total - TransferOffset));
  TransferOffset += Len;
  // Chunk header: u32 totalLen | u32 chunkOff | u32 chunkLen.
  std::vector<std::uint8_t> Buf(12 + Len);
  std::uint32_t TotalU = static_cast<std::uint32_t>(Total);
  std::memcpy(Buf.data(), &TotalU, 4);
  std::memcpy(Buf.data() + 4, &Off, 4);
  std::memcpy(Buf.data() + 8, &Len, 4);
  std::memcpy(Buf.data() + 12, TransferBytes.data() + Off, Len);
  C.transport().postWrite(
      Coord, Joiner, C.memoryMap().transferSlot(), std::move(Buf), NewKey,
      [this](rdma::WcStatus St) {
        if (St != rdma::WcStatus::Success) {
          abortTransition();
          return;
        }
        // The write completed, so the bytes are stable in the joiner's
        // staging slot; have the joiner copy them out, then send the next
        // chunk from the coordinator context.
        C.transport().callOn(Joiner, [this]() {
          const rdma::MemoryRegion &Mem = C.transport().memory(Joiner);
          rdma::MemOffset Slot = C.memoryMap().transferSlot();
          std::uint32_t CLen = 0;
          std::vector<std::uint8_t> Hdr = Mem.slice(Slot + 8, 4);
          std::memcpy(&CLen, Hdr.data(), 4);
          std::vector<std::uint8_t> Payload = Mem.slice(Slot + 12, CLen);
          JoinerAccum.insert(JoinerAccum.end(), Payload.begin(),
                             Payload.end());
          C.transport().callOn(Coord, [this]() { sendNextChunk(); });
        });
      },
      rdma::Transport::LaneClient);
}

void ReconfigManager::abortTransition() {
  if (!InProgress.load(std::memory_order_acquire))
    return;
  // Undo the fence (idempotent if it never ran) and reopen the old epoch
  // on the surviving members; the minted key and epoch number are burned.
  unsigned N = C.numNodes();
  for (rdma::NodeId T = 0; T < N; ++T)
    for (rdma::NodeId W = 0; W < N; ++W)
      if (T != W)
        C.transport().setWritePermission(T, W, OldKey, true);
  for (rdma::NodeId T : currentMembers()) {
    if (!C.transport().isAlive(T))
      continue;
    C.transport().callOn(T, [this, T]() { C.node(T).openEpoch(); });
  }
  if (CtrAborts)
    CtrAborts->add();
  StageId = StAbort;
  noteStage(StAbort);
  finish(false);
}

void ReconfigManager::finish(bool Ok) {
  if (Ok) {
    StageId = StDone;
    noteStage(StDone);
  }
  DoneFn D = std::move(Done);
  Done = nullptr;
  InProgress.store(false, std::memory_order_release);
  if (D)
    D(Ok, Current.Epoch);
}
