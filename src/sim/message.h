#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "crypto/signature.h"
#include "util/bytes.h"
#include "util/types.h"

/// Wire messages for every protocol in the repository.
///
/// Channels are authenticated (the receiver knows the immediate sender), so
/// init/echo and the baseline messages carry no signatures; only the
/// authenticated round message carries a signature bundle, because those
/// signatures are *relayed* and must remain verifiable end-to-end.
namespace stclock {

/// Signature bundle: every authenticated broadcast copies one into the
/// interned Message, and every relay carries Theta(n) signatures.
using SigBundle = std::vector<crypto::Signature>;

/// Authenticated algorithm: "(round k)" with 1..n distinct signatures over
/// the canonical round payload. A fresh broadcast carries just the sender's
/// signature; an acceptance relay carries the full accepting bundle.
struct RoundMsg {
  Round round = 0;
  SigBundle sigs;
};

/// Signature-free primitive: "(init, round k)".
struct InitMsg {
  Round round = 0;
};

/// Signature-free primitive: "(echo, round k)".
struct EchoMsg {
  Round round = 0;
};

/// Interactive convergence (CNV) baseline: sender's logical clock reading at
/// transmission time.
struct CnvValueMsg {
  Round round = 0;
  LocalTime value = 0;
};

/// Lundelius–Welch baseline: "my logical clock just read round*P"; the
/// receiver timestamps arrival to estimate the clock offset.
struct LwValueMsg {
  Round round = 0;
};

/// Naive leader-based baseline: leader's logical clock reading.
struct LeaderTimeMsg {
  Round round = 0;
  LocalTime value = 0;
};

/// Application payload for the lockstep synchronizer (core/synchronizer.h):
/// "this is my message for simulated synchronous round `round`".
struct LockstepMsg {
  std::uint64_t round = 0;
  std::uint64_t payload = 0;
};

/// Gradient clock synchronization baseline: sender's logical clock reading
/// at transmission time, averaged by *neighbors* (the local-skew metric's
/// protocol family — see baselines/gradient_sync.h).
struct GradientMsg {
  Round round = 0;
  LocalTime value = 0;
};

using Message = std::variant<RoundMsg, InitMsg, EchoMsg, CnvValueMsg, LwValueMsg,
                             LeaderTimeMsg, LockstepMsg, GradientMsg>;

/// Message discriminator in variant-alternative order. Keys the fixed-size
/// counter arrays in trace/counters.h, so per-event accounting never
/// allocates; convert to a human-readable tag only at report time via
/// message_kind_name().
enum class MessageKind : std::uint8_t {
  kRound = 0,
  kInit,
  kEcho,
  kCnv,
  kLw,
  kLeader,
  kLockstep,
  kGradient,
};

inline constexpr std::size_t kMessageKindCount = std::variant_size_v<Message>;

/// Canonical byte string that round-k signatures are computed over. Includes
/// the round number so stale signatures cannot be replayed into a later
/// round (a replay adversary tests exactly this).
[[nodiscard]] Bytes round_signing_payload(Round round);

/// Kind discriminator of a message (O(1): the variant index).
[[nodiscard]] constexpr MessageKind message_kind(const Message& m) {
  return static_cast<MessageKind>(m.index());
}

/// Short human-readable tag ("round", "init", ...) for reports and logs.
[[nodiscard]] const char* message_kind_name(MessageKind kind);

/// Approximate serialized size in bytes (for the message/byte counters).
[[nodiscard]] std::size_t message_size_bytes(const Message& m);

/// Round number carried by any message kind.
[[nodiscard]] Round message_round(const Message& m);

}  // namespace stclock
