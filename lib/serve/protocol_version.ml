(* Version identifiers, in a leaf module so both the request vocabulary
   (which folds the code version into every content digest) and the wire
   protocol (which rejects mismatched handshakes) can share them.

   [protocol] gates the handshake: bump it whenever a frame layout or
   message codec changes, and old clients get a clean "protocol
   mismatch" error instead of a mid-stream decode failure.

   [code_version] keys the content-addressed store: bump it whenever the
   execution semantics change (gadgets, checker, machine model), and
   every previously stored verdict silently becomes a miss instead of a
   stale hit.  The stored payloads are report bytes, so a change to
   their rendering (the JSON layout of fuzz shards, for one) is such a
   change too. *)

let protocol = 3
let build = "1.6.0"
let code_version = build
let version_string = Printf.sprintf "teesec %s (protocol %d)" build protocol
