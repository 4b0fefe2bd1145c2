#ifndef DIME_SERVER_DISPATCH_H_
#define DIME_SERVER_DISPATCH_H_

#include <functional>
#include <string>

#include "src/common/status.h"
#include "src/server/service.h"
#include "src/server/wire.h"

/// \file dispatch.h
/// Protocol-independent verb dispatch: one WireRequest in, one wire.h
/// response line out. Both transports route through here — the line-JSON
/// framing hands the line over verbatim, the HTTP front door (http.h)
/// wraps the same line as a response body — so the two protocols cannot
/// drift apart in semantics, only in framing.
///
/// The async form exists for the event loop: a check admitted to the
/// service completes on a WORKER thread, and the loop must not burn a
/// blocked transport thread per in-flight request waiting for it.

namespace dime {

/// Handles the admin "reload" verb. `fingerprint` is the request's
/// optional expected content fingerprint ("" = unconditional) — see
/// DimeService::ReloadFromSnapshot. Runs on the calling (transport)
/// thread and may block; must be thread-safe.
using ReloadHandler =
    std::function<StatusOr<ReloadOutcome>(const std::string& fingerprint)>;

struct DispatchHooks {
  /// Null: reload is answered INVALID_ARGUMENT (no reloadable source).
  ReloadHandler reload_handler;
};

/// One dispatched request's reply, framing-agnostic.
struct DispatchResult {
  /// The '\n'-terminated line-JSON response (wire.h serializers).
  std::string line;
  /// The coarse outcome the line carries, for transports whose framing
  /// wants it (the HTTP front door maps it to an HTTP status). For a
  /// check this is the ENGINE result status too: a deadline-truncated
  /// run reports kDeadlineExceeded here even though the body still
  /// carries the partial result.
  StatusCode code = StatusCode::kOk;
  /// A shutdown verb was acked: the transport must finish writing the
  /// response, then unblock its owner's Wait().
  bool shutdown = false;
};

/// Dispatches one parsed request. `done` is invoked exactly once: inline
/// (before the call returns) for every verb except an admitted check,
/// which completes later on a service worker thread. `done` must be
/// thread-safe against that and must not block.
///
/// Reload runs INLINE on the calling thread (it swaps epochs; it was
/// never queue-admitted work) — event-loop callers run the whole
/// dispatch on an offload thread so a slow reload cannot stall the IO
/// loop.
void DispatchRequestAsync(DimeService* service, const DispatchHooks& hooks,
                          const WireRequest& request,
                          std::function<void(DispatchResult)> done);

/// Parse + dispatch of one raw request line, blocking until the reply is
/// ready. Lets tests drive the protocol without sockets.
DispatchResult DispatchLine(DimeService* service, const DispatchHooks& hooks,
                            const std::string& line);

}  // namespace dime

#endif  // DIME_SERVER_DISPATCH_H_
