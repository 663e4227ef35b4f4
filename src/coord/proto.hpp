// The kop-sweep line protocol (v2).
//
// One request per line, space-separated ASCII tokens, '\n' terminated;
// one response line back (GET HIT responses append a length-prefixed
// body).  Small enough to drive with `nc -U`, stable enough to pin in
// tests.  Point hashes and lease ids travel as 16-digit lower-case hex
// (jobs::hex16 rendering).
//
//   HELLO <worker>                 -> OK <incarnation> suspect=<ms> dead=<ms>
//   NEXT <worker>                  -> GRANT <hash> <lease-id> <payload>
//                                   | IDLE <queued> <leased>
//                                   | DRAINED
//   LEASE <worker> <hash> [entry]  -> GRANT <hash> <lease-id> -
//                                   | TAKEN | COMPLETE | UNKNOWN
//   DONE <worker> <lease-id> <hash>-> OK | OK-STALE | DUP | UNKNOWN
//   PING <worker>                  -> OK <state>
//   BYE <worker>                   -> OK
//   GET <hash>                     -> HIT <bytes>\n<bytes-of-entry-doc>
//                                   | COMPLETE (done, no servable cache here)
//                                   | PENDING <queued|leased> | UNKNOWN
//   MGET <hash>...                 -> one sub-response per hash, in
//                                     request order, each framed exactly
//                                     like a GET response; at most
//                                     kMgetMaxHashes hashes per line
//   STATS                          -> one-line JSON
//   SHUTDOWN                       -> OK (server exits its loop)
//
// Any worker-bearing request doubles as a heartbeat, and a lease lives
// as long as its holder: it comes back only when the holder is declared
// dead (heartbeat silence past dead=<ms>) or says BYE.  A request from a
// worker whose incarnation was declared dead gets `DEAD` (re-HELLO to
// continue); a worker that never said HELLO gets `NOHELLO`.  Malformed
// lines get `ERR <reason>`.
//
// The protocol is transport-agnostic: the same lines flow over a Unix
// stream socket (one box) or TCP (many boxes).  parse_address() below is
// the one place both ends agree on how "--coord <addr>" strings map to
// transports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kop::coord {

inline constexpr int kProtoVersion = 2;

/// Largest MGET batch one request line may carry.  64 hashes of 17
/// bytes each stay comfortably inside the 4096-byte line limit.
inline constexpr std::size_t kMgetMaxHashes = 64;

struct Request {
  enum class Verb {
    kHello, kNext, kLease, kDone, kPing, kBye,
    kGet, kMget, kStats, kShutdown, kInvalid,
  };
  Verb verb = Verb::kInvalid;
  std::string worker;        // HELLO/NEXT/LEASE/DONE/PING/BYE
  std::uint64_t hash = 0;    // LEASE/DONE/GET
  std::uint64_t lease_id = 0;  // DONE
  std::vector<std::uint64_t> hashes;  // MGET, request order
  std::string entry;         // LEASE: optional cache entry name
  std::string error;         // kInvalid: what was wrong with the line
};

/// Parse one request line (without the trailing '\n').  Never throws;
/// malformed input comes back as Verb::kInvalid with `error` set.
Request parse_request(const std::string& line);

/// Split on single spaces (empty tokens dropped).
std::vector<std::string> split_tokens(const std::string& line);

/// Strict 16-digit lower-case hex -> u64; false on anything else.
bool parse_hex16(const std::string& s, std::uint64_t* out);

/// The hex16 rendering (mirrors jobs::hex16, locally so the coord
/// layer stays below the harness).
std::string to_hex16(std::uint64_t v);

/// Where a coordinator lives.  One string form serves both transports:
///
///   /tmp/kop.sock   -> unix   (contains '/', or has no ':')
///   sweep.sock      -> unix   (no ':')
///   host:7641       -> tcp    (last ':' splits host from numeric port)
///   127.0.0.1:0     -> tcp    (port 0: kernel picks; Server reports it)
///
/// The same parse backs `kop_sweepd --listen` and `--coord` everywhere,
/// so every surface accepts every address form.
struct Address {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix: filesystem path
  std::string host;  // kTcp
  int port = 0;      // kTcp
};

/// Parse an address string; false (with *error set) on empty input or a
/// TCP form with a non-numeric / out-of-range port.
bool parse_address(const std::string& s, Address* out, std::string* error);

}  // namespace kop::coord
