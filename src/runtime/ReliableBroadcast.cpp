//===- runtime/ReliableBroadcast.cpp - RDMA broadcast ------------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/ReliableBroadcast.h"

#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;

ReliableBroadcast::ReliableBroadcast(rdma::Transport &Fabric, rdma::NodeId Self,
                                     rdma::MemOffset BackupOff,
                                     std::uint32_t SlotBytes)
    : Fabric(Fabric), Self(Self), BackupOff(BackupOff),
      SlotBytes(SlotBytes) {
  assert(SlotBytes >= OverheadBytes && "backup slot smaller than its header");
}

void ReliableBroadcast::attachStats(obs::Registry &R) {
  CtrStage = &R.counter("bcast.stage");
  CtrFetch = &R.counter("bcast.fetch");
}

void ReliableBroadcast::stage(const std::vector<std::uint8_t> &Payload,
                              std::uint32_t Epoch) {
  assert(Payload.size() + OverheadBytes <= SlotBytes &&
         "backup slot too small");
  rdma::MemoryRegion &Mem = Fabric.memory(Self);
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  Mem.writeU8(BackupOff + SlotBytes - 1, 0); // Drop the old canary first.
  Mem.writeU8(BackupOff, static_cast<std::uint8_t>(Kind::Flush));
  Mem.write(BackupOff + 1, &Epoch, 4);
  Mem.write(BackupOff + 5, &Len, 4);
  if (Len)
    Mem.write(BackupOff + 9, Payload.data(), Len);
  Mem.writeU8(BackupOff + SlotBytes - 1, 1);
  if (CtrStage)
    CtrStage->add();
  if (OnStage)
    OnStage();
}

void ReliableBroadcast::clear() {
  Fabric.memory(Self).writeU8(BackupOff + SlotBytes - 1, 0);
}

void ReliableBroadcast::fetch(
    rdma::NodeId Peer, std::function<void(BackupMessage)> Done) const {
  if (CtrFetch)
    CtrFetch->add();
  Fabric.postRead(
      Self, Peer, BackupOff, SlotBytes,
      [SlotBytes = SlotBytes, Done = std::move(Done)](
          rdma::WcStatus, std::vector<std::uint8_t> Data) {
        BackupMessage Msg;
        if (Data.size() != SlotBytes || Data[SlotBytes - 1] != 1) {
          Done(std::move(Msg)); // Empty or mid-write: nothing pending.
          return;
        }
        Msg.TheKind = static_cast<Kind>(Data[0]);
        std::memcpy(&Msg.Epoch, Data.data() + 1, 4);
        std::uint32_t Len = 0;
        std::memcpy(&Len, Data.data() + 5, 4);
        // Len is remote bytes: compare without the sum, which a corrupt
        // length near 2^32 would wrap past the check.
        if (Len <= SlotBytes - OverheadBytes)
          Msg.Payload.assign(Data.begin() + 9, Data.begin() + 9 + Len);
        else
          Msg.TheKind = Kind::None; // Torn slot; treat as empty.
        Done(std::move(Msg));
      },
      rdma::Transport::LaneBackground);
}
