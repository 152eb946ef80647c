#include "model.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "cache/query_artifacts.h"
#include "core/json_export.h"
#include "persist/session_snapshot.h"
#include "sim/session.h"

namespace perfbench {

using bionav::NavigationSession;
using bionav::NavNodeId;
using bionav::RequestOp;

namespace {

/// The replay runs after the stack is shut down, so it may use the CPUs.
constexpr size_t kMaxReplayThreads = 4;

bool IsShed(const std::string& error) {
  return error == "RETRY_LATER" || error == "SHUTTING_DOWN";
}

class SessionReplay {
 public:
  SessionReplay(NavigationSession* model, ModelCheck* check, size_t index)
      : model_(model), check_(check), index_(index) {}

  /// Applies `op` to the model and compares its answer. False on the first
  /// disagreement (recorded in the check).
  bool Apply(const OpRecord& op, bool measure_snapshots);

  int64_t nav_cost() const { return nav_cost_; }

  bool Mismatch(const OpRecord& op, const std::string& what) {
    ++check_->mismatches;
    if (check_->first_mismatch.empty()) {
      check_->first_mismatch = "session " + std::to_string(index_) + " " +
                               bionav::RequestOpName(op.op) + ": " + what;
    }
    return false;
  }

 private:
  NavigationSession* model_;
  ModelCheck* check_;
  size_t index_;
  int64_t nav_cost_ = 0;
};

bool SessionReplay::Apply(const OpRecord& op, bool measure_snapshots) {
  ++check_->ops_checked;
  switch (op.op) {
    case RequestOp::kExpand: {
      auto r = model_->Expand(op.node);
      if (!op.ok) {
        return r.ok() ? Mismatch(op, "server failed, model expanded") : true;
      }
      if (!r.ok()) return Mismatch(op, "model failed: " + r.status().ToString());
      if (r.ValueOrDie() != op.revealed) {
        return Mismatch(op, "revealed nodes differ at node " +
                                std::to_string(op.node));
      }
      nav_cost_ += 1 + static_cast<int64_t>(op.revealed.size());
      return true;
    }
    case RequestOp::kBatchExpand: {
      if (op.ok && op.batch.size() != op.nodes.size()) {
        return Mismatch(op, "batch answered a different number of nodes");
      }
      for (size_t i = 0; i < op.nodes.size(); ++i) {
        auto r = model_->Expand(op.nodes[i]);
        if (!op.ok) continue;
        const BatchItem& item = op.batch[i];
        if (r.ok() != item.ok) return Mismatch(op, "batch item outcome differs");
        if (!r.ok()) continue;
        if (r.ValueOrDie() != item.revealed) {
          return Mismatch(op, "batch item revealed nodes differ");
        }
        nav_cost_ += 1 + static_cast<int64_t>(item.revealed.size());
      }
      return true;
    }
    case RequestOp::kBacktrack: {
      bool undone = model_->Backtrack();
      if (op.ok && undone != op.undone) return Mismatch(op, "undone differs");
      return true;
    }
    case RequestOp::kFind: {
      if (!op.ok) return true;
      const bionav::NavigationTree& nav = model_->navigation_tree();
      NavNodeId node = nav.NodeOfConcept(op.concept_id);
      bool found = node != bionav::kInvalidNavNode;
      if (found != op.found) return Mismatch(op, "found differs");
      if (!found) return true;
      const bionav::ActiveTree& active = model_->active_tree();
      int comp = active.ComponentOf(node);
      if (node != op.find_node || active.IsVisible(node) != op.visible ||
          active.ComponentRoot(comp) != op.find_root ||
          active.ComponentDistinctCount(comp) != op.find_distinct) {
        return Mismatch(op, "located node differs");
      }
      return true;
    }
    case RequestOp::kShowResults: {
      auto r = model_->ShowResults(op.node, op.retstart, op.retmax);
      if (!op.ok) {
        return r.ok() ? Mismatch(op, "server failed, model answered") : true;
      }
      if (!r.ok()) return Mismatch(op, "model failed: " + r.status().ToString());
      if (static_cast<int64_t>(r.ValueOrDie().size()) != op.total) {
        return Mismatch(op, "result page size differs");
      }
      return true;
    }
    case RequestOp::kView: {
      if (!op.ok) return true;
      if (!op.view.empty()) {
        std::string text = bionav::VisualizationToJson(
            model_->active_tree(), model_->cost_model(), op.depth);
        auto parsed = bionav::ParseJson(text);
        if (!parsed.ok() || bionav::WriteJson(parsed.ValueOrDie()) != op.view) {
          return Mismatch(op, "tree differs from the model's");
        }
        ++check_->views_checked;
      }
      if (measure_snapshots) {
        check_->snapshot_bytes.push_back(static_cast<double>(
            bionav::EncodeSnapshot(
                bionav::SnapshotSession(*model_, "model", 0))
                .size()));
      }
      return true;
    }
    default:
      return true;
  }
}

}  // namespace

void ReplayAgainstModel(const bionav::ConceptHierarchy& hierarchy,
                        const bionav::EUtilsClient& eutils,
                        const std::vector<Variant>& variants,
                        const std::vector<SessionLog>& sessions,
                        bool measure_snapshots, ModelCheck* check) {
  // The model's own artifacts, built once per variant and shared
  // read-only by the replay threads (frozen bundles are thread-safe).
  std::vector<std::shared_ptr<const bionav::QueryArtifacts>> artifacts(
      variants.size());
  for (const SessionLog& log : sessions) {
    if (artifacts[log.variant] == nullptr) {
      artifacts[log.variant] = bionav::BuildQueryArtifacts(
          hierarchy, eutils, variants[log.variant].query,
          bionav::CostModelParams(), /*freeze=*/true);
    }
  }
  size_t threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1,
                                      kMaxReplayThreads);
  std::vector<ModelCheck> partial(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      bionav::StrategyFactory factory = bionav::MakeBioNavStrategyFactory();
      for (size_t index = t; index < sessions.size(); index += threads) {
        const SessionLog& log = sessions[index];
        if (log.ops.empty() || !log.ops.front().ok) continue;
        const Variant& variant = variants[log.variant];
        NavigationSession model(&eutils, artifacts[log.variant], variant.query,
                                factory);
        ModelCheck& mine = partial[t];
        SessionReplay replay(&model, &mine, index);
        ++mine.sessions_checked;
        const OpRecord& query = log.ops.front();
        if (query.result_size != static_cast<int64_t>(model.result_size())) {
          replay.Mismatch(query, "result size differs");
          continue;
        }
        bool agreed = true;
        for (size_t i = 1; i < log.ops.size() && agreed; ++i) {
          const OpRecord& op = log.ops[i];
          if (!op.ok && IsShed(op.error)) break;
          agreed = replay.Apply(op, measure_snapshots);
          if (!op.ok) break;
        }
        if (agreed && log.completed && replay.nav_cost() != log.nav_cost) {
          replay.Mismatch(log.ops.back(), "navigation cost differs");
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (ModelCheck& p : partial) {
    check->sessions_checked += p.sessions_checked;
    check->ops_checked += p.ops_checked;
    check->views_checked += p.views_checked;
    check->mismatches += p.mismatches;
    if (check->first_mismatch.empty()) check->first_mismatch = p.first_mismatch;
    check->snapshot_bytes.insert(check->snapshot_bytes.end(),
                                 p.snapshot_bytes.begin(),
                                 p.snapshot_bytes.end());
  }
}

}  // namespace perfbench
