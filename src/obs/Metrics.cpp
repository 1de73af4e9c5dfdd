//===- obs/Metrics.cpp - Lock-free runtime metrics ------------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/obs/Metrics.h"

#include "hamband/obs/Json.h"

#include <algorithm>
#include <cmath>

using namespace hamband;
using namespace hamband::obs;

//===----------------------------------------------------------------------===//
// HistogramSnapshot
//===----------------------------------------------------------------------===//

std::uint64_t HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Rank of the target sample, 1-based: ceil(Q * Count), at least 1.
  std::uint64_t Rank = static_cast<std::uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  if (Rank == 0)
    Rank = 1;
  std::uint64_t Seen = 0;
  for (unsigned I = 0; I < NumHistogramBuckets; ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank)
      return std::min(histogramBucketUpper(I), Max);
  }
  return Max;
}

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  Count += Other.Count;
  Sum += Other.Sum;
  Max = std::max(Max, Other.Max);
  for (unsigned I = 0; I < NumHistogramBuckets; ++I)
    Buckets[I] += Other.Buckets[I];
}

//===----------------------------------------------------------------------===//
// StatsSnapshot
//===----------------------------------------------------------------------===//

std::uint64_t StatsSnapshot::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

std::int64_t StatsSnapshot::gauge(const std::string &Name) const {
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0 : It->second;
}

const HistogramSnapshot *
StatsSnapshot::histogram(const std::string &Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : &It->second;
}

void StatsSnapshot::merge(const StatsSnapshot &Other) {
  for (const auto &[Name, V] : Other.Counters)
    Counters[Name] += V;
  for (const auto &[Name, V] : Other.Gauges)
    Gauges[Name] += V;
  for (const auto &[Name, H] : Other.Histograms)
    Histograms[Name].merge(H);
  Spans.insert(Spans.end(), Other.Spans.begin(), Other.Spans.end());
}

std::string StatsSnapshot::toJson() const {
  json::Value Doc = json::Value::makeObject();
  Doc.add("schema", json::Value::makeString("hamband-stats-v1"));

  json::Value Cs = json::Value::makeObject();
  for (const auto &[Name, V] : Counters)
    Cs.add(Name, json::Value::makeUInt(V));
  Doc.add("counters", std::move(Cs));

  json::Value Gs = json::Value::makeObject();
  for (const auto &[Name, V] : Gauges)
    Gs.add(Name, json::Value::makeInt(V));
  Doc.add("gauges", std::move(Gs));

  json::Value Hs = json::Value::makeObject();
  for (const auto &[Name, H] : Histograms) {
    json::Value HV = json::Value::makeObject();
    HV.add("count", json::Value::makeUInt(H.Count));
    HV.add("sum", json::Value::makeUInt(H.Sum));
    HV.add("max", json::Value::makeUInt(H.Max));
    // Sparse [bucket, count] pairs keep documents small.
    json::Value Bs = json::Value::makeArray();
    for (unsigned I = 0; I < NumHistogramBuckets; ++I) {
      if (H.Buckets[I] == 0)
        continue;
      json::Value Pair = json::Value::makeArray();
      Pair.Arr.push_back(json::Value::makeUInt(I));
      Pair.Arr.push_back(json::Value::makeUInt(H.Buckets[I]));
      Bs.Arr.push_back(std::move(Pair));
    }
    HV.add("buckets", std::move(Bs));
    Hs.add(Name, std::move(HV));
  }
  Doc.add("histograms", std::move(Hs));

  json::Value Sp = json::Value::makeArray();
  for (const SpanRecord &R : Spans) {
    json::Value SV = json::Value::makeObject();
    SV.add("name", json::Value::makeString(R.Name));
    SV.add("begin_ns", json::Value::makeUInt(R.BeginNs));
    SV.add("end_ns", json::Value::makeUInt(R.EndNs));
    Sp.Arr.push_back(std::move(SV));
  }
  Doc.add("spans", std::move(Sp));
  return Doc.write();
}

bool StatsSnapshot::fromJson(const std::string &Text, StatsSnapshot &Out) {
  json::Value Doc;
  if (!json::parse(Text, Doc) || !Doc.isObject())
    return false;
  const json::Value *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "hamband-stats-v1")
    return false;

  StatsSnapshot S;
  if (const json::Value *Cs = Doc.find("counters")) {
    if (!Cs->isObject())
      return false;
    for (const auto &[Name, V] : Cs->Obj) {
      if (!V.isNumber())
        return false;
      S.Counters[Name] = V.asUInt();
    }
  }
  if (const json::Value *Gs = Doc.find("gauges")) {
    if (!Gs->isObject())
      return false;
    for (const auto &[Name, V] : Gs->Obj) {
      if (!V.isNumber())
        return false;
      S.Gauges[Name] = V.asInt();
    }
  }
  if (const json::Value *Hs = Doc.find("histograms")) {
    if (!Hs->isObject())
      return false;
    for (const auto &[Name, HV] : Hs->Obj) {
      if (!HV.isObject())
        return false;
      HistogramSnapshot H;
      if (const json::Value *V = HV.find("count"))
        H.Count = V->asUInt();
      if (const json::Value *V = HV.find("sum"))
        H.Sum = V->asUInt();
      if (const json::Value *V = HV.find("max"))
        H.Max = V->asUInt();
      if (const json::Value *Bs = HV.find("buckets")) {
        if (!Bs->isArray())
          return false;
        for (const json::Value &Pair : Bs->Arr) {
          if (!Pair.isArray() || Pair.Arr.size() != 2 ||
              !Pair.Arr[0].isNumber() || !Pair.Arr[1].isNumber())
            return false;
          std::uint64_t I = Pair.Arr[0].asUInt();
          if (I >= NumHistogramBuckets)
            return false;
          H.Buckets[static_cast<unsigned>(I)] = Pair.Arr[1].asUInt();
        }
      }
      S.Histograms[Name] = H;
    }
  }
  if (const json::Value *Sp = Doc.find("spans")) {
    if (!Sp->isArray())
      return false;
    for (const json::Value &SV : Sp->Arr) {
      if (!SV.isObject())
        return false;
      SpanRecord R;
      if (const json::Value *V = SV.find("name"))
        R.Name = V->Str;
      if (const json::Value *V = SV.find("begin_ns"))
        R.BeginNs = V->asUInt();
      if (const json::Value *V = SV.find("end_ns"))
        R.EndNs = V->asUInt();
      S.Spans.push_back(std::move(R));
    }
  }
  Out = std::move(S);
  return true;
}

//===----------------------------------------------------------------------===//
// Histogram / Registry
//===----------------------------------------------------------------------===//

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = N.load(std::memory_order_relaxed);
  S.Sum = Total.load(std::memory_order_relaxed);
  S.Max = Peak.load(std::memory_order_relaxed);
  for (unsigned I = 0; I < NumHistogramBuckets; ++I)
    S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
  return S;
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  N.store(0, std::memory_order_relaxed);
  Total.store(0, std::memory_order_relaxed);
  Peak.store(0, std::memory_order_relaxed);
}

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &Registry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Registry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

void Registry::recordSpan(const std::string &Name, std::uint64_t BeginNs,
                          std::uint64_t EndNs) {
  histogram(Name).record(EndNs - BeginNs);
  std::lock_guard<std::mutex> Lock(M);
  if (Spans.size() >= MaxSpans) {
    ++SpansDropped;
    return;
  }
  Spans.push_back(SpanRecord{Name, BeginNs, EndNs});
}

StatsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  StatsSnapshot S;
  for (const auto &[Name, C] : Counters)
    S.Counters[Name] = C->value();
  for (const auto &[Name, G] : Gauges)
    S.Gauges[Name] = G->value();
  for (const auto &[Name, H] : Histograms)
    S.Histograms[Name] = H->snapshot();
  S.Spans = Spans;
  if (SpansDropped)
    S.Counters["obs.spans_dropped"] = SpansDropped;
  return S;
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
  Spans.clear();
  SpansDropped = 0;
}
