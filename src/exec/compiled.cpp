#include "exec/compiled.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "exec/kernels.hpp"
#include "sparse/reorder.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fghp::exec {

namespace {

constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }

[[noreturn]] void compile_error(std::string what) {
  ErrorContext ctx;
  ctx.phase = "plan-compile";
  throw InvariantError(std::move(what), std::move(ctx));
}

/// `base + count` as an image offset; a running total that leaves the idx_t
/// range is refused (narrow_idx) instead of wrapping.
idx_t advance(idx_t base, std::size_t count, const char* what) {
  return narrow_idx(static_cast<std::int64_t>(base) + static_cast<std::int64_t>(count), what);
}

/// Cache-locality proxy of one block's multiply loop under a candidate
/// (group, rhs-slot) renumbering: walk the rhs-slot access sequence in
/// emission order and charge each jump the bit width of its slot distance —
/// log-distance tracks which level of the cache hierarchy the jump lands
/// in (a gap of 2^k doubles costs ~k), so a tight RCM band over a few
/// thousand slots scores far below a random spread over millions even
/// though both exceed a cache line. Lower is better.
struct LocalityScore {
  std::uint64_t score = 0;
  idx_t prev = 0;
  void visit(idx_t slot) {
    const idx_t gap = slot > prev ? slot - prev : prev - slot;
    score += std::bit_width(static_cast<std::uint64_t>(gap));
    prev = slot;
  }
};

/// The working set of one running block task. The slot maps are global-sized
/// (one per input space, one for the output) and read kInvalidIdx between
/// blocks: a block resets exactly the ids it set before it hands the set on.
struct BlockScratch {
  std::vector<std::vector<idx_t>> inSlotOf;
  std::vector<idx_t> outSlotOf;
  std::vector<idx_t> touchedOut, cursor, oldOfNewGroup, newGroupPtr, grpRhs, slotIds;
  std::vector<double> grpVal;
};

/// Scratch sets of the running block tasks: a task borrows one when it
/// starts and gives it back when it ends, so there is at most one set per
/// thread that lowers blocks. A failed block drops its set instead — the
/// slot maps it leaves behind are not reset.
class ScratchPool {
 public:
  explicit ScratchPool(const Schedule& s) : s_(s) {}

  std::unique_ptr<BlockScratch> borrow() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        std::unique_ptr<BlockScratch> sc = std::move(free_.back());
        free_.pop_back();
        return sc;
      }
    }
    auto sc = std::make_unique<BlockScratch>();
    sc->inSlotOf.resize(s_.inputs.size());
    for (std::size_t sp = 0; sp < s_.inputs.size(); ++sp)
      sc->inSlotOf[sp].assign(uz(s_.inputs[sp].size), kInvalidIdx);
    sc->outSlotOf.assign(uz(s_.output.size), kInvalidIdx);
    return sc;
  }

  void give_back(std::unique_ptr<BlockScratch> sc) {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(std::move(sc));
  }

 private:
  const Schedule& s_;
  std::mutex mu_;
  std::vector<std::unique_ptr<BlockScratch>> free_;
};

/// The tables of one processor whose image offsets depend on the counts of
/// the processors before it, staged with block-local slot numbers until the
/// serial prefix fixes every base. Only the per-entry arrays of `in`/`out`
/// are filled (in: slotGlobal, own, recv; out: own, recv). The task CSR and
/// the send tables are not staged: their offsets are known up front.
struct BlockTables {
  std::vector<idx_t> groupPtr;  ///< block-local task offset of every group, + end
  std::vector<InSpaceImage> in;
  OutSpaceImage out;
  bool reordered = false;
  std::exception_ptr error;
};

/// dst[at + i] = src[i] + base.
void place(std::vector<idx_t>& dst, idx_t at, const std::vector<idx_t>& src, idx_t base) {
  std::transform(src.begin(), src.end(), dst.begin() + at,
                 [base](idx_t v) { return v + base; });
}

/// Adds `base` to the slots of one block's range [from, to) of an image table.
void rebase(std::vector<idx_t>& v, idx_t from, idx_t to, idx_t base) {
  for (idx_t i = from; i < to; ++i) v[uz(i)] += base;
}

}  // namespace

weight_t Image::total_words() const {
  weight_t words = 0;
  for (const InSpaceImage& sp : in) words += static_cast<weight_t>(sp.sendOff.back());
  return words + static_cast<weight_t>(out.sendOff.back());
}

idx_t Image::total_messages() const {
  idx_t msgs = 0;
  for (const InSpaceImage& sp : in) msgs += sp.sendMsgOff.back();
  return msgs + out.sendMsgOff.back();
}

Image compile(const Schedule& s, const CompileOptions& opts) {
  const idx_t K = s.numProcs;
  const std::size_t numIn = s.inputs.size();
  FGHP_REQUIRE(s.outComm.size() == uz(K) && s.tasks.size() == uz(K) &&
                   s.inComm.size() == numIn,
               "schedule comm/task arrays inconsistent with numProcs");
  for (const auto& space : s.inComm)
    FGHP_REQUIRE(space.size() == uz(K), "schedule comm arrays inconsistent with numProcs");
  FGHP_REQUIRE(s.rhsSpace >= 0 && uz(s.rhsSpace) < numIn, "rhs space out of range");
  FGHP_REQUIRE(s.lhsConst || (s.lhsSpace >= 0 && uz(s.lhsSpace) < numIn),
               "lhs space out of range");
  trace::TraceScope span(s.traceCat, "plan.compile", "procs", K, "words",
                         s.total_words());
  cancel::check_point(opts.cancel, "plan.compile");

  Image c;
  c.traceCat = s.traceCat;
  c.traceIteration = s.traceIteration;
  c.metricPrefix = s.metricPrefix;
  c.numProcs = K;
  c.lhsConst = s.lhsConst;
  c.lhsSpace = s.lhsSpace;
  c.rhsSpace = s.rhsSpace;
  // The cache reorder only understands two-space (group x rhs-slot) blocks;
  // gathered-lhs schedules always keep their first-use numbering.
  c.cacheReordered = opts.cacheReorder && s.lhsConst;

  const std::size_t k1 = uz(K) + 1;
  c.in.resize(numIn);
  for (std::size_t sp = 0; sp < numIn; ++sp) {
    c.in[sp].size = s.inputs[sp].size;
    c.in[sp].off.assign(k1, 0);
    c.in[sp].ownOff.assign(k1, 0);
    c.in[sp].sendOff.assign(k1, 0);
    c.in[sp].sendMsgOff.assign(k1, 0);
    c.in[sp].recvOff.assign(k1, 0);
  }
  c.out.size = s.output.size;
  c.out.off.assign(k1, 0);
  c.out.ownOff.assign(k1, 0);
  c.out.sendOff.assign(k1, 0);
  c.out.sendMsgOff.assign(k1, 0);
  c.out.recvOff.assign(k1, 0);

  // Pass 1: prefix every space's send buffer and record the flat word base
  // of every message, so receivers can translate (peer, pairIndex) into
  // absolute send-buffer offsets without any search. The task offsets are
  // a prefix too: block p's task CSR starts at taskOff[p].
  std::vector<std::vector<idx_t>> inMsgBase(numIn);
  std::vector<idx_t> outMsgBase;
  std::vector<idx_t> taskOff(k1, 0);
  for (idx_t p = 0; p < K; ++p) {
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      InSpaceImage& im = c.in[sp];
      idx_t w = im.sendOff[uz(p)];
      for (const Msg& m : s.inComm[sp][uz(p)].sends) {
        inMsgBase[sp].push_back(w);
        w = advance(w, m.ids.size(), "compiled expand send words");
      }
      im.sendOff[uz(p) + 1] = w;
      im.sendMsgOff[uz(p) + 1] = advance(im.sendMsgOff[uz(p)], s.inComm[sp][uz(p)].sends.size(),
                                         "compiled expand messages");
    }
    idx_t w = c.out.sendOff[uz(p)];
    for (const Msg& m : s.outComm[uz(p)].sends) {
      outMsgBase.push_back(w);
      w = advance(w, m.ids.size(), "compiled fold send words");
    }
    c.out.sendOff[uz(p) + 1] = w;
    c.out.sendMsgOff[uz(p) + 1] =
        advance(c.out.sendMsgOff[uz(p)], s.outComm[uz(p)].sends.size(), "compiled fold messages");
    taskOff[uz(p) + 1] =
        advance(taskOff[uz(p)], s.tasks[uz(p)].outId.size(), "compiled task count");
  }

  const std::size_t totalTasks = uz(taskOff.back());
  c.rhsSlot.resize(totalTasks);
  if (s.lhsConst)
    c.constVals.resize(totalTasks);
  else
    c.lhsSlot.resize(totalTasks);
  for (InSpaceImage& im : c.in) im.sendId.resize(uz(im.sendOff.back()));
  c.out.sendSlot.resize(uz(c.out.sendOff.back()));
  c.out.sendId.resize(uz(c.out.sendOff.back()));

  // Pass 2: lower processor p's block with block-local numbering. Slots are
  // assigned in two steps: a provisional id in first-use order over the
  // local tasks (plus expand-recv-only input ids), then — for baked-constant
  // schedules with the cache reorder on — a bipartite RCM renumbering of the
  // block so consecutive groups of the multiply loop touch nearby rhs slots.
  // Every downstream table reads the slot maps after the renumbering, which
  // is how the permutation folds into the whole image without touching any
  // schedule order. The task CSR and the send tables go straight into the
  // image; a block reads only the schedule and pass 1, so blocks are
  // independent of each other.
  auto lower_block = [&](idx_t p, BlockScratch& sc, BlockTables& b) {
    const ProcTasks& t = s.tasks[uz(p)];
    const std::size_t n = t.outId.size();
    const bool lhsOk = s.lhsConst ? t.constVals.size() == n : t.lhsId.size() == n;
    if (t.rhsId.size() != n || !lhsOk)
      compile_error("ragged task arrays on processor " + std::to_string(p));
    b.in.resize(numIn);
    std::vector<idx_t>& touchedOut = sc.touchedOut;
    touchedOut.clear();

    // Provisional (pre-permutation) group and input ids in first-use order
    // over the local tasks (out, then lhs, then rhs per task). The touched
    // ids of an input space are its slot -> global-id table in this order.
    // A provisional id is bounded by its space's size, so it fits idx_t.
    auto touch_in = [&](std::size_t sp, idx_t id) {
      std::vector<idx_t>& touched = b.in[sp].slotGlobal;
      if (sc.inSlotOf[sp][uz(id)] == kInvalidIdx) {
        sc.inSlotOf[sp][uz(id)] = static_cast<idx_t>(touched.size());
        touched.push_back(id);
      }
    };
    auto touch_task_in = [&](std::size_t sp, idx_t id) {
      if (id < 0 || id >= s.inputs[sp].size)
        compile_error("processor " + std::to_string(p) + ": task " +
                      s.inputs[sp].name + " id " + std::to_string(id) +
                      " outside the space");
      touch_in(sp, id);
    };
    for (std::size_t e = 0; e < n; ++e) {
      const idx_t o = t.outId[e];
      if (o < 0 || o >= s.output.size)
        compile_error("processor " + std::to_string(p) + ": task " +
                      s.output.name + " id " + std::to_string(o) +
                      " outside the space");
      if (sc.outSlotOf[uz(o)] == kInvalidIdx) {
        sc.outSlotOf[uz(o)] = static_cast<idx_t>(touchedOut.size());
        touchedOut.push_back(o);
      }
      if (!s.lhsConst) touch_task_in(uz(s.lhsSpace), t.lhsId[e]);
      touch_task_in(uz(s.rhsSpace), t.rhsId[e]);
    }

    // An expand recv may deliver an id no local task reads (legal in a
    // hand-built schedule); such ids still get a slot so delivery has a
    // target. They take part in the renumbering as isolated vertices (RCM
    // places them last — the multiply never reads them).
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      for (const Msg& m : s.inComm[sp][uz(p)].recvs) {
        for (idx_t id : m.ids) {
          if (id < 0 || id >= s.inputs[sp].size)
            compile_error("processor " + std::to_string(p) + ": " +
                          s.inputs[sp].name + " recv id out of range");
          touch_in(sp, id);
        }
      }
    }
    const idx_t nr = narrow_idx(touchedOut.size(), "compiled groups of one processor");
    std::vector<idx_t>& rhsTouched = b.in[uz(s.rhsSpace)].slotGlobal;
    const idx_t nc = narrow_idx(rhsTouched.size(), "compiled rhs slots of one processor");

    // Group the local tasks by provisional output slot, preserving the
    // schedule's within-group task order (the canonical accumulation order,
    // so sums stay bit-identical under any renumbering), straight into the
    // block's range of the image.
    std::vector<idx_t>& groupPtr = b.groupPtr;
    groupPtr.assign(uz(nr) + 1, 0);
    for (idx_t o : t.outId) ++groupPtr[uz(sc.outSlotOf[uz(o)]) + 1];
    for (idx_t r = 0; r < nr; ++r) groupPtr[uz(r) + 1] += groupPtr[uz(r)];
    sc.cursor.assign(groupPtr.begin(), groupPtr.end() - 1);
    const std::size_t base = uz(taskOff[uz(p)]);
    const std::span<idx_t> rhs = std::span<idx_t>(c.rhsSlot).subspan(base, n);
    const std::span<double> vals =
        s.lhsConst ? std::span<double>(c.constVals).subspan(base, n) : std::span<double>();
    const std::span<idx_t> lhs =
        s.lhsConst ? std::span<idx_t>() : std::span<idx_t>(c.lhsSlot).subspan(base, n);
    for (std::size_t e = 0; e < n; ++e) {
      const idx_t pos = sc.cursor[uz(sc.outSlotOf[uz(t.outId[e])])]++;
      rhs[uz(pos)] = sc.inSlotOf[uz(s.rhsSpace)][uz(t.rhsId[e])];
      if (s.lhsConst)
        vals[uz(pos)] = t.constVals[e];
      else
        lhs[uz(pos)] = sc.inSlotOf[uz(s.lhsSpace)][uz(t.lhsId[e])];
    }

    // Second-level cache reordering of the block. The bipartite RCM
    // candidate is adopted only when it beats the first-use numbering's
    // locality score by a margin — blocks that already arrive well ordered
    // (banded matrices in natural order, tiny fragments with no structure)
    // keep their numbering, so the reorder can help but never regress.
    // Under the first-use numbering the multiply walks the block's CSR in
    // storage order.
    if (c.cacheReordered && nr > 1) {
      const sparse::BipartiteOrdering rcm = sparse::bipartite_rcm(nr, nc, groupPtr, rhs);
      LocalityScore idScore, rcmScore;
      for (idx_t slot : rhs) idScore.visit(slot);
      sc.oldOfNewGroup.resize(uz(nr));
      for (idx_t r = 0; r < nr; ++r) sc.oldOfNewGroup[uz(rcm.rowNew[uz(r)])] = r;
      for (idx_t oldR : sc.oldOfNewGroup)
        for (idx_t pos = groupPtr[uz(oldR)]; pos < groupPtr[uz(oldR) + 1]; ++pos)
          rcmScore.visit(rcm.colNew[uz(rhs[uz(pos)])]);
      // Adopt only on a decisive (>= 25%) score win: the proxy cannot see
      // the multi-stream prefetch a banded natural order enjoys, so a
      // marginal score edge is not worth disturbing it.
      if (rcmScore.score * 4 < idScore.score * 3) {
        b.reordered = true;
        // Re-emit the block's CSR in permuted group order from a copy of
        // the provisional one (each group's entries keep their schedule
        // order).
        sc.grpRhs.assign(rhs.begin(), rhs.end());
        sc.grpVal.assign(vals.begin(), vals.end());
        sc.newGroupPtr.resize(uz(nr) + 1);
        idx_t run = 0;
        for (idx_t newR = 0; newR < nr; ++newR) {
          const idx_t oldR = sc.oldOfNewGroup[uz(newR)];
          sc.newGroupPtr[uz(newR)] = run;
          for (idx_t pos = groupPtr[uz(oldR)]; pos < groupPtr[uz(oldR) + 1]; ++pos, ++run) {
            rhs[uz(run)] = rcm.colNew[uz(sc.grpRhs[uz(pos)])];
            vals[uz(run)] = sc.grpVal[uz(pos)];
          }
        }
        sc.newGroupPtr[uz(nr)] = run;
        groupPtr.swap(sc.newGroupPtr);

        // Finalize the slot maps: provisional id -> permuted id. Only the
        // output and rhs spaces take part in the permutation (the reorder
        // requires lhsConst); any other input space keeps its first-use
        // numbering.
        for (idx_t o : touchedOut) sc.outSlotOf[uz(o)] = rcm.rowNew[uz(sc.outSlotOf[uz(o)])];
        std::vector<idx_t>& rhsSlotOf = sc.inSlotOf[uz(s.rhsSpace)];
        for (idx_t id : rhsTouched) rhsSlotOf[uz(id)] = rcm.colNew[uz(rhsSlotOf[uz(id)])];
        sc.slotIds.resize(uz(nc));
        for (idx_t j = 0; j < nc; ++j) sc.slotIds[uz(rcm.colNew[uz(j)])] = rhsTouched[uz(j)];
        rhsTouched.swap(sc.slotIds);
      }
    }

    // Per input space: the owner gather, the send gather and the
    // pre-translated recv copies.
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      InSpaceImage& im = c.in[sp];
      InSpaceImage& bt = b.in[sp];
      const std::vector<idx_t>& slotOf = sc.inSlotOf[sp];
      const auto& comm = s.inComm[sp][uz(p)];

      // Owned values with a local consumer (the MT expand gather).
      for (idx_t id : comm.owned) {
        if (id < 0 || id >= s.inputs[sp].size)
          compile_error("processor " + std::to_string(p) + ": owned " +
                        s.inputs[sp].name + " id out of range");
        if (slotOf[uz(id)] != kInvalidIdx) {
          bt.ownId.push_back(id);
          bt.ownSlot.push_back(slotOf[uz(id)]);
        }
      }

      // Expand sends gather straight from the global input: the sender owns
      // these ids, so its local copy is the global value.
      idx_t w = im.sendOff[uz(p)];
      for (const Msg& m : comm.sends)
        for (idx_t id : m.ids) {
          if (id < 0 || id >= s.inputs[sp].size)
            compile_error("processor " + std::to_string(p) + ": " +
                          s.inputs[sp].name + " send id out of range");
          im.sendId[uz(w++)] = id;
        }

      // Expand recvs: flat (source word -> destination slot) copies.
      for (const Msg& m : comm.recvs) {
        if (m.peer < 0 || m.peer >= K)
          compile_error("processor " + std::to_string(p) + ": " +
                        s.inputs[sp].name + " recv from invalid peer");
        const auto& peerSends = s.inComm[sp][uz(m.peer)].sends;
        if (m.pairIndex < 0 || m.pairIndex >= static_cast<idx_t>(peerSends.size()) ||
            peerSends[uz(m.pairIndex)].ids.size() != m.ids.size())
          compile_error("processor " + std::to_string(p) + ": " +
                        s.inputs[sp].name + " recv does not pair with its send");
        const idx_t srcBase =
            inMsgBase[sp][uz(im.sendMsgOff[uz(m.peer)] + m.pairIndex)];
        for (std::size_t k = 0; k < m.ids.size(); ++k) {
          bt.recvSlot.push_back(slotOf[uz(m.ids[k])]);
          bt.recvSrc.push_back(srcBase + static_cast<idx_t>(k));
        }
      }
    }

    // Fold, owner side: owned output ids this processor actually computed.
    const auto& oc = s.outComm[uz(p)];
    for (idx_t o : oc.owned) {
      if (o < 0 || o >= s.output.size)
        compile_error("processor " + std::to_string(p) + ": owned " +
                      s.output.name + " id out of range");
      if (sc.outSlotOf[uz(o)] != kInvalidIdx) {
        b.out.ownId.push_back(o);
        b.out.ownSlot.push_back(sc.outSlotOf[uz(o)]);
      }
    }

    // Fold sends must reference ids this processor computes a partial for.
    idx_t w = c.out.sendOff[uz(p)];
    for (const Msg& m : oc.sends)
      for (idx_t o : m.ids) {
        if (o < 0 || o >= s.output.size || sc.outSlotOf[uz(o)] == kInvalidIdx)
          compile_error("fold schedule on processor " + std::to_string(p) +
                        " references " + s.output.name + " id " + std::to_string(o) +
                        " it never computes");
        c.out.sendSlot[uz(w)] = sc.outSlotOf[uz(o)];
        c.out.sendId[uz(w++)] = o;
      }

    // Fold recvs.
    for (const Msg& m : oc.recvs) {
      if (m.peer < 0 || m.peer >= K)
        compile_error("processor " + std::to_string(p) + ": fold recv from invalid peer");
      const auto& peerSends = s.outComm[uz(m.peer)].sends;
      if (m.pairIndex < 0 || m.pairIndex >= static_cast<idx_t>(peerSends.size()) ||
          peerSends[uz(m.pairIndex)].ids.size() != m.ids.size())
        compile_error("processor " + std::to_string(p) +
                      ": fold recv does not pair with its send");
      const idx_t srcBase = outMsgBase[uz(c.out.sendMsgOff[uz(m.peer)] + m.pairIndex)];
      for (std::size_t k = 0; k < m.ids.size(); ++k) {
        const idx_t o = m.ids[k];
        if (o < 0 || o >= s.output.size)
          compile_error("processor " + std::to_string(p) + ": fold recv id out of range");
        b.out.recvId.push_back(o);
        b.out.recvSrc.push_back(srcBase + static_cast<idx_t>(k));
      }
    }

    // Disarm the slot maps for the next block.
    for (idx_t o : touchedOut) sc.outSlotOf[uz(o)] = kInvalidIdx;
    for (std::size_t sp = 0; sp < numIn; ++sp)
      for (idx_t id : b.in[sp].slotGlobal) sc.inSlotOf[sp][uz(id)] = kInvalidIdx;
  };

  // The blocks run on the shared pool, inline when it resolves to one
  // thread. Each running task borrows one scratch set; every block records
  // its own failure, so the pool never aggregates errors.
  ThreadPool* pool = ThreadPool::for_request(0);
  auto for_each_block = [&](auto&& fn) {
    if (pool != nullptr)
      parallel_for(*pool, static_cast<long>(K), [&](long p) { fn(static_cast<idx_t>(p)); });
    else
      for (idx_t p = 0; p < K; ++p) fn(p);
  };
  std::vector<BlockTables> blocks(uz(K));
  {
    ScratchPool scratch(s);
    for_each_block([&](idx_t p) {
      BlockTables& b = blocks[uz(p)];
      try {
        trace::TraceScope blockSpan(s.traceCat, "plan.compile.block", "proc", p);
        std::unique_ptr<BlockScratch> sc = scratch.borrow();
        lower_block(p, *sc, b);
        scratch.give_back(std::move(sc));
      } catch (...) {
        b.error = std::current_exception();
      }
    });
  }
  // A serial lowering stops at the first processor that fails, and a block's
  // checks run in the same order either way: rethrowing the lowest failing
  // processor's error reproduces it exactly, at any thread count.
  for (const BlockTables& b : blocks)
    if (b.error) std::rethrow_exception(b.error);

  // Pass 3: prefix the per-block counts into the slot, owner and recv
  // offsets, then size the tables the blocks staged.
  for (idx_t p = 0; p < K; ++p) {
    const BlockTables& b = blocks[uz(p)];
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      InSpaceImage& im = c.in[sp];
      const InSpaceImage& bt = b.in[sp];
      im.off[uz(p) + 1] = advance(im.off[uz(p)], bt.slotGlobal.size(), "compiled input slots");
      im.ownOff[uz(p) + 1] = advance(im.ownOff[uz(p)], bt.ownId.size(), "compiled owned inputs");
      im.recvOff[uz(p) + 1] =
          advance(im.recvOff[uz(p)], bt.recvSlot.size(), "compiled expand recv words");
    }
    c.out.off[uz(p) + 1] = advance(c.out.off[uz(p)], b.groupPtr.size() - 1, "compiled groups");
    c.out.ownOff[uz(p) + 1] =
        advance(c.out.ownOff[uz(p)], b.out.ownId.size(), "compiled owned outputs");
    c.out.recvOff[uz(p) + 1] =
        advance(c.out.recvOff[uz(p)], b.out.recvId.size(), "compiled fold recv words");
    if (b.reordered) ++c.reorderedProcs;
  }
  for (InSpaceImage& im : c.in) {
    im.slotGlobal.resize(uz(im.off.back()));
    im.ownId.resize(uz(im.ownOff.back()));
    im.ownSlot.resize(uz(im.ownOff.back()));
    im.recvSlot.resize(uz(im.recvOff.back()));
    im.recvSrc.resize(uz(im.recvOff.back()));
  }
  c.out.ownId.resize(uz(c.out.ownOff.back()));
  c.out.ownSlot.resize(uz(c.out.ownOff.back()));
  c.out.recvId.resize(uz(c.out.recvOff.back()));
  c.out.recvSrc.resize(uz(c.out.recvOff.back()));
  c.groupPtr.resize(uz(c.out.off.back()) + 1);
  c.groupPtr.back() = taskOff.back();

  // Pass 4: place every block at its offsets, adding the slot bases to its
  // block-local slots, and release its staging.
  for_each_block([&](idx_t p) {
    BlockTables& b = blocks[uz(p)];
    const idx_t groupBase = c.out.off[uz(p)];
    for (std::size_t r = 0; r + 1 < b.groupPtr.size(); ++r)
      c.groupPtr[uz(groupBase) + r] = taskOff[uz(p)] + b.groupPtr[r];
    rebase(c.rhsSlot, taskOff[uz(p)], taskOff[uz(p) + 1], c.in[uz(s.rhsSpace)].off[uz(p)]);
    if (!s.lhsConst)
      rebase(c.lhsSlot, taskOff[uz(p)], taskOff[uz(p) + 1], c.in[uz(s.lhsSpace)].off[uz(p)]);
    rebase(c.out.sendSlot, c.out.sendOff[uz(p)], c.out.sendOff[uz(p) + 1], groupBase);
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      InSpaceImage& im = c.in[sp];
      const InSpaceImage& bt = b.in[sp];
      const idx_t slotBase = im.off[uz(p)];
      place(im.slotGlobal, slotBase, bt.slotGlobal, 0);
      place(im.ownId, im.ownOff[uz(p)], bt.ownId, 0);
      place(im.ownSlot, im.ownOff[uz(p)], bt.ownSlot, slotBase);
      place(im.recvSlot, im.recvOff[uz(p)], bt.recvSlot, slotBase);
      place(im.recvSrc, im.recvOff[uz(p)], bt.recvSrc, 0);
    }
    place(c.out.ownId, c.out.ownOff[uz(p)], b.out.ownId, 0);
    place(c.out.ownSlot, c.out.ownOff[uz(p)], b.out.ownSlot, groupBase);
    place(c.out.recvId, c.out.recvOff[uz(p)], b.out.recvId, 0);
    place(c.out.recvSrc, c.out.recvOff[uz(p)], b.out.recvSrc, 0);
    b = BlockTables{};
  });

  // The compiled send spaces must cover the schedule's exact traffic: one
  // flat word per scheduled word, nothing more, and the same message count —
  // ExecStats come straight from these offsets.
  if (c.total_words() != s.total_words() || c.total_messages() != s.total_messages())
    compile_error("compiled send-buffer offsets do not cover the schedule's traffic");
  return c;
}

Session::Session(Image compiled) : c_(std::move(compiled)) {
  // assign, not resize: explicit zero-fill even if these vectors ever carry
  // capacity from a prior image (e.g. a moved-from session), so no run can
  // observe stale tail data.
  inLoc_.resize(c_.in.size());
  inSendBuf_.resize(c_.in.size());
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp) {
    inLoc_[sp].assign(uz(c_.in[sp].off.back()), 0.0);
    inSendBuf_[sp].assign(uz(c_.in[sp].sendOff.back()), 0.0);
  }
  partial_.assign(uz(c_.out.off.back()), 0.0);
  outSendBuf_.assign(uz(c_.out.sendOff.back()), 0.0);
  resolve_metrics();
}

Session::Session(const Schedule& s, const CompileOptions& opts)
    : Session(compile(s, opts)) {}

void Session::resolve_metrics() {
  // Registered metrics resolve once per session (the references are
  // process-lifetime), so iterations after the first stay allocation-free —
  // the contract test_compiled asserts. Resolved per workload prefix, never
  // cached in a function-local static: two workloads share this code.
  mIterations_ = &metrics::counter(c_.metricPrefix + ".iterations");
  mExpandWords_ = &metrics::counter(c_.metricPrefix + ".expand.words");
  mFoldWords_ = &metrics::counter(c_.metricPrefix + ".fold.words");
  mMessages_ = &metrics::counter(c_.metricPrefix + ".messages");
  mTaskRetries_ = &metrics::counter(c_.metricPrefix + ".task_retries");
  mSerialFallbacks_ = &metrics::counter(c_.metricPrefix + ".serial_fallbacks");
  mIterationUs_ = &metrics::histogram(
      c_.metricPrefix + ".iteration.us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000,
       200000, 500000, 1000000});
}

void Session::note_iteration(std::uint64_t startNs, const perf::Sample& perfBegin) {
  mIterationUs_->observe(
      static_cast<std::int64_t>((trace::now_ns() - startNs) / 1000));
  if (!perfBegin.valid) return;
  const perf::Sample end = perf::read_thread();
  if (!end.valid) return;
  // First valid sample resolves the perf counters — allocation happens only
  // on a perf-enabled run, preserving the zero-alloc iteration contract for
  // everyone else. On the pooled MT path these are the *calling* thread's
  // counters (orchestration + any inline supersteps); worker-side cycles are
  // covered by whole-phase CounterScopes in the callers.
  if (mPerfCycles_ == nullptr) {
    const std::string p = "perf." + c_.metricPrefix + ".iteration.";
    mPerfCycles_ = &metrics::counter(p + "cycles");
    mPerfInstructions_ = &metrics::counter(p + "instructions");
    mPerfLlcMisses_ = &metrics::counter(p + "llc_misses");
    mPerfBranchMisses_ = &metrics::counter(p + "branch_misses");
  }
  const perf::Sample d = perf::delta(perfBegin, end);
  mPerfCycles_->add(static_cast<std::int64_t>(d.cycles));
  mPerfInstructions_->add(static_cast<std::int64_t>(d.instructions));
  mPerfLlcMisses_->add(static_cast<std::int64_t>(d.llcMisses));
  mPerfBranchMisses_->add(static_cast<std::int64_t>(d.branchMisses));
}

void Session::charge_iteration(ExecStats* stats, idx_t taskRetries,
                               bool serialFallback) {
  weight_t expandWords = 0;
  for (const InSpaceImage& im : c_.in) expandWords += im.sendOff.back();
  const weight_t foldWords = c_.out.sendOff.back();
  const idx_t messages = c_.total_messages();
  mIterations_->add();
  mExpandWords_->add(expandWords);
  mFoldWords_->add(foldWords);
  mMessages_->add(messages);
  if (stats != nullptr)
    *stats = {expandWords + foldWords, messages, taskRetries, serialFallback};
}

void Session::run(std::span<const std::span<const double>> ins,
                  std::vector<double>& out, ExecStats* stats) {
  cancel::check_point(cancel_, "exec.iter", "cancel.exec.iter", ++iter_);
  const std::uint64_t t0 = trace::now_ns();
  const perf::Sample p0 = perf::read_thread();
  run_serial_impl(ins, out);
  charge_iteration(stats, 0, false);
  note_iteration(t0, p0);
}

void Session::run_serial_impl(std::span<const std::span<const double>> ins,
                              std::vector<double>& out) {
  trace::TraceScope span(c_.traceCat, c_.traceIteration, "procs", c_.numProcs,
                         "mt", 0);
  FGHP_REQUIRE(ins.size() == c_.in.size(), "input space count mismatch");
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp)
    FGHP_REQUIRE(ins[sp].size() == uz(c_.in[sp].size), "input size mismatch");
  out.resize(uz(c_.out.size));
  std::fill(out.begin(), out.end(), 0.0);

  // Expand: one flat gather per input space. Owned and delivered values are
  // both the global value, so the serial path needs no message buffers.
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp)
    kern::gather(inLoc_[sp].data(), ins[sp].data(), c_.in[sp].slotGlobal.data(),
                 inLoc_[sp].size());

  // Local multiply in the schedule's per-group task order.
  const double* rhs = inLoc_[uz(c_.rhsSpace)].data();
  if (c_.lhsConst) {
    for (std::size_t r = 0; r < partial_.size(); ++r)
      partial_[r] = kern::row_dot(c_.constVals.data(), c_.rhsSlot.data(), rhs,
                                  c_.groupPtr[r], c_.groupPtr[r + 1]);
  } else {
    const double* lhs = inLoc_[uz(c_.lhsSpace)].data();
    for (std::size_t r = 0; r < partial_.size(); ++r)
      partial_[r] = kern::pair_dot(c_.lhsSlot.data(), lhs, c_.rhsSlot.data(), rhs,
                                   c_.groupPtr[r], c_.groupPtr[r + 1]);
  }

  // Fold: every processor's own contributions first, then the sent partials
  // in schedule (sender-major) order — the canonical summation order.
  for (std::size_t i = 0; i < c_.out.ownId.size(); ++i)
    out[uz(c_.out.ownId[i])] += partial_[uz(c_.out.ownSlot[i])];
  for (std::size_t w = 0; w < c_.out.sendId.size(); ++w)
    out[uz(c_.out.sendId[w])] += partial_[uz(c_.out.sendSlot[w])];
}

void Session::run_mt(std::span<const std::span<const double>> ins,
                     std::vector<double>& out, idx_t numThreads, ExecStats* stats) {
  trace::TraceScope span(c_.traceCat, c_.traceIteration, "procs", c_.numProcs,
                         "mt", 1);
  cancel::check_point(cancel_, "exec.iter", "cancel.exec.iter", ++iter_);
  const std::uint64_t iterT0 = trace::now_ns();
  const perf::Sample iterP0 = perf::read_thread();
  FGHP_REQUIRE(ins.size() == c_.in.size(), "input space count mismatch");
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp)
    FGHP_REQUIRE(ins[sp].size() == uz(c_.in[sp].size), "input size mismatch");
  const idx_t K = c_.numProcs;

  // Worker resolution routes through the shared pool, so FGHP_THREADS and
  // PartitionConfig::numThreads behave exactly as thread_pool.hpp documents:
  // an explicit positive request wins, otherwise the pool default applies,
  // capped at K because tasks are per-processor. A request that resolves to
  // one thread gets no pool at all — the supersteps run inline on the
  // caller with every fault site and recovery rung still armed.
  long requested = numThreads > 0
                       ? static_cast<long>(numThreads)
                       : static_cast<long>(ThreadPool::default_num_threads());
  requested = std::min<long>(requested, static_cast<long>(K));
  ThreadPool* pool = ThreadPool::for_request(requested);

  out.resize(uz(c_.out.size));
  std::fill(out.begin(), out.end(), 0.0);

  // Retries are the one dynamic quantity of an iteration; its traffic is the
  // image's send offsets, charged once by charge_iteration.
  metrics::Counter taskRetries;
  std::atomic<bool> failed{false};

  // Per-processor task wrapper: one retry (fault site `exec.retry`, same
  // ordinal), then give up and flag the run for the serial fallback. Task
  // bodies are idempotent — every scratch word they touch is assigned, not
  // accumulated — so a retry after a partial first attempt cannot
  // double-accumulate. The flag is read after the next barrier, so a failed
  // superstep never feeds garbage into the next one. Each completed task is
  // a trace span bracketed explicitly (begin/end on the worker that ran it).
  auto run_task = [&](const char* site, idx_t p, auto&& body) {
    // Name the in-flight work for watchdog stall attribution: the explicit
    // begin/end span below records only *completed* tasks, so a hung body
    // would otherwise be invisible to current_activity().
    trace::ActivityScope act(site);
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        fault::check(attempt == 0 ? site : "exec.retry", p + 1);
        const bool traced = trace::enabled();
        const std::uint64_t t0 = traced ? trace::now_ns() : 0;
        body();
        if (traced) trace::complete(c_.traceCat, site, t0, trace::now_ns(), "proc", p);
        return;
      } catch (const std::exception& e) {
        if (attempt == 0) {
          taskRetries.add();
          trace::instant("recovery", "exec.task_retry", "proc", p);
          push_warning(std::string("executor task '") + site + "' on processor " +
                       std::to_string(p) + " failed (" + e.what() + "); retrying");
        } else {
          trace::instant("recovery", "exec.serial_fallback", "proc", p);
          push_warning(std::string("executor task '") + site + "' on processor " +
                       std::to_string(p) + " failed its retry (" + e.what() +
                       "); degrading to the serial executor");
          failed.store(true, std::memory_order_release);
        }
      }
    }
  };

  // One BSP superstep: fn(p) for every processor, fully joined before
  // returning (parallel_for blocks until all tasks completed — that join is
  // the barrier between supersteps). Serial resolution runs inline.
  auto superstep = [&](auto&& fn) {
    if (pool != nullptr)
      parallel_for(*pool, static_cast<long>(K),
                   [&](long p) { fn(static_cast<idx_t>(p)); });
    else
      for (idx_t p = 0; p < K; ++p) fn(p);
  };

  // Superstep 1: gather every input space's owned values into local slots
  // and its expand buffer.
  superstep([&](idx_t p) {
    run_task("exec.expand", p, [&, p] {
      idx_t sentTotal = 0;
      for (std::size_t sp = 0; sp < c_.in.size(); ++sp) {
        const InSpaceImage& im = c_.in[sp];
        const std::span<const double> x = ins[sp];
        for (idx_t w = im.ownOff[uz(p)]; w < im.ownOff[uz(p) + 1]; ++w)
          inLoc_[sp][uz(im.ownSlot[uz(w)])] = x[uz(im.ownId[uz(w)])];
        const idx_t base = im.sendOff[uz(p)];
        const idx_t sent = im.sendOff[uz(p) + 1] - base;
        kern::gather(inSendBuf_[sp].data() + base, x.data(), im.sendId.data() + base,
                     uz(sent));
        sentTotal += sent;
      }
      trace::counter(c_.traceCat, "expand.words", static_cast<double>(sentTotal),
                     "proc", p);
    });
  });

  // Between supersteps the caller thread is at a barrier — the only place a
  // cancellation can be observed without racing the retry ladder inside the
  // worker tasks. The scratch is fully re-assigned by every run, so an
  // iteration abandoned here leaves the session reusable.
  cancel::check_point(cancel_, "exec.superstep", nullptr, iter_);

  // Superstep 2: drain the expand buffers, multiply locally, fill the fold
  // buffer.
  if (!failed.load(std::memory_order_acquire)) {
    superstep([&](idx_t p) {
      run_task("exec.fold", p, [&, p] {
        for (std::size_t sp = 0; sp < c_.in.size(); ++sp) {
          const InSpaceImage& im = c_.in[sp];
          for (idx_t w = im.recvOff[uz(p)]; w < im.recvOff[uz(p) + 1]; ++w)
            inLoc_[sp][uz(im.recvSlot[uz(w)])] = inSendBuf_[sp][uz(im.recvSrc[uz(w)])];
        }
        const double* rhs = inLoc_[uz(c_.rhsSpace)].data();
        if (c_.lhsConst) {
          for (idx_t r = c_.out.off[uz(p)]; r < c_.out.off[uz(p) + 1]; ++r)
            partial_[uz(r)] = kern::row_dot(c_.constVals.data(), c_.rhsSlot.data(),
                                            rhs, c_.groupPtr[uz(r)],
                                            c_.groupPtr[uz(r) + 1]);
        } else {
          const double* lhs = inLoc_[uz(c_.lhsSpace)].data();
          for (idx_t r = c_.out.off[uz(p)]; r < c_.out.off[uz(p) + 1]; ++r)
            partial_[uz(r)] = kern::pair_dot(c_.lhsSlot.data(), lhs, c_.rhsSlot.data(),
                                             rhs, c_.groupPtr[uz(r)],
                                             c_.groupPtr[uz(r) + 1]);
        }
        const idx_t base = c_.out.sendOff[uz(p)];
        const idx_t sent = c_.out.sendOff[uz(p) + 1] - base;
        kern::gather(outSendBuf_.data() + base, partial_.data(),
                     c_.out.sendSlot.data() + base, uz(sent));
        trace::counter(c_.traceCat, "fold.words", static_cast<double>(sent), "proc", p);
      });
    });
  }

  cancel::check_point(cancel_, "exec.superstep", nullptr, iter_);

  // Superstep 3: owners accumulate their own partial plus received partials
  // in schedule order (same order as the serial path). Each output id has a
  // unique owner, so writes to the output are disjoint across processors.
  if (!failed.load(std::memory_order_acquire)) {
    superstep([&](idx_t p) {
      for (idx_t w = c_.out.ownOff[uz(p)]; w < c_.out.ownOff[uz(p) + 1]; ++w)
        out[uz(c_.out.ownId[uz(w)])] += partial_[uz(c_.out.ownSlot[uz(w)])];
      for (idx_t w = c_.out.recvOff[uz(p)]; w < c_.out.recvOff[uz(p) + 1]; ++w)
        out[uz(c_.out.recvId[uz(w)])] += outSendBuf_[uz(c_.out.recvSrc[uz(w)])];
    });
  }

  const bool fellBack = failed.load(std::memory_order_acquire);
  if (fellBack) {
    // Some task failed even its retry: discard the partial parallel run and
    // recompute from scratch on the (uninstrumented) serial path, which
    // re-zeroes the output. run_serial_impl, not run(): this is still the
    // same logical iteration, so it must not consume a second check-point
    // ordinal, and it is charged once below like a clean run.
    mSerialFallbacks_->add();
    run_serial_impl(ins, out);
  }
  mTaskRetries_->add(taskRetries.value());
  charge_iteration(stats, static_cast<idx_t>(taskRetries.value()), fellBack);
  note_iteration(iterT0, iterP0);
}

}  // namespace fghp::exec
