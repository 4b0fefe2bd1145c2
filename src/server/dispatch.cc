#include "src/server/dispatch.h"

#include <memory>
#include <utility>

#include "src/common/mutex.h"

namespace dime {
namespace {

DispatchResult ErrorResult(const std::string& id, const Status& status) {
  DispatchResult result;
  result.code = status.code();
  result.line = SerializeErrorResponse(id, status);
  return result;
}

}  // namespace

void DispatchRequestAsync(DimeService* service, const DispatchHooks& hooks,
                          const WireRequest& request,
                          std::function<void(DispatchResult)> done) {
  switch (request.type) {
    case WireRequest::Type::kPing: {
      DispatchResult result;
      result.line = SerializePingResponse(request.id);
      done(std::move(result));
      return;
    }
    case WireRequest::Type::kStats: {
      DispatchResult result;
      result.line = SerializeStatsResponse(request.id, service->Stats());
      done(std::move(result));
      return;
    }
    case WireRequest::Type::kShutdown: {
      DispatchResult result;
      result.line = SerializeShutdownResponse(request.id);
      result.shutdown = true;
      done(std::move(result));
      return;
    }
    case WireRequest::Type::kReload: {
      if (!hooks.reload_handler) {
        done(ErrorResult(
            request.id,
            InvalidArgumentError("this server has no reloadable corpus "
                                 "source (started without --snapshot)")));
        return;
      }
      StatusOr<ReloadOutcome> outcome =
          hooks.reload_handler(request.fingerprint);
      if (!outcome.ok()) {
        done(ErrorResult(request.id, outcome.status()));
        return;
      }
      DispatchResult result;
      result.line = SerializeReloadResponse(request.id, *outcome);
      done(std::move(result));
      return;
    }
    case WireRequest::Type::kCheck:
      break;
  }

  // check: named groups are passed through and resolved by the service
  // against the epoch it pins — resolving here could hand it a group
  // pointer from an epoch a concurrent reload is retiring. An inline
  // group must outlive the (possibly much later) worker-side completion,
  // so it lives on the heap, owned by the completion lambda.
  auto inline_group = std::make_shared<Group>();
  CheckRequest check;
  if (!request.group_tsv.empty()) {
    Status parsed_group =
        ParseGroupTsv(request.group_tsv, "inline", inline_group.get());
    if (!parsed_group.ok()) {
      done(ErrorResult(request.id, parsed_group));
      return;
    }
    check.group = inline_group.get();
  } else if (!request.group_name.empty()) {
    check.group_name = request.group_name;
  } else {
    done(ErrorResult(
        request.id,
        InvalidArgumentError("check needs \"group\" or \"group_tsv\"")));
    return;
  }

  check.deadline_ms = request.deadline_ms;
  check.bypass_cache = request.no_cache;
  if (!request.engine.empty()) {
    EngineKind kind;
    if (!EngineKindFromName(request.engine, &kind)) {
      done(ErrorResult(
          request.id,
          InvalidArgumentError("unknown engine '" + request.engine + "'")));
      return;
    }
    check.engine = kind;
  }

  service->CheckAsync(
      check, [id = request.id, inline_group = std::move(inline_group),
              done = std::move(done)](StatusOr<CheckReply> reply) {
        if (!reply.ok()) {
          done(ErrorResult(id, reply.status()));
          return;
        }
        DispatchResult result;
        // Engine truncation is not an error arm (the body carries the
        // partial result), but the coarse code still reports it so the
        // HTTP framing can say 504 instead of 200.
        result.code = reply->result->status.code();
        // reply->group is our heap inline group or a group owned by
        // reply->epoch, which the reply pins — safe either way.
        result.line = SerializeCheckResponse(id, *reply->group, *reply);
        done(std::move(result));
      });
}

DispatchResult DispatchLine(DimeService* service, const DispatchHooks& hooks,
                            const std::string& line) {
  StatusOr<WireRequest> parsed = ParseRequestLine(line);
  if (!parsed.ok()) return ErrorResult("", parsed.status());

  // Every non-check verb completes inline, and the sync Check inside
  // CheckAsync's admitted path is exactly what the old thread-per-
  // connection transport did — so waiting on the callback here cannot
  // deadlock: a service worker thread delivers it.
  struct Rendezvous {
    Mutex mu;
    CondVar ready;
    DispatchResult result DIME_GUARDED_BY(mu);
    bool fired DIME_GUARDED_BY(mu) = false;
  } rv;
  DispatchRequestAsync(service, hooks, *parsed, [&rv](DispatchResult r) {
    MutexLock lock(&rv.mu);
    rv.result = std::move(r);
    rv.fired = true;
    rv.ready.Signal();
  });
  MutexLock lock(&rv.mu);
  while (!rv.fired) rv.ready.Wait(&rv.mu);
  return rv.result;
}

}  // namespace dime
