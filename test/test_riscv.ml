(* Tests for the RISC-V substrate: words, privilege modes, PMP, CSRs,
   memory, instructions, programs and sv39 page tables. *)

open Riscv

let word = Alcotest.testable Word.pp Int64.equal

(* {1 Word} *)

let test_mask () =
  Alcotest.(check word) "mask 0" 0L (Word.mask 0);
  Alcotest.(check word) "mask 1" 1L (Word.mask 1);
  Alcotest.(check word) "mask 8" 0xFFL (Word.mask 8);
  Alcotest.(check word) "mask 63" Int64.max_int (Word.mask 63);
  Alcotest.(check word) "mask 64" (-1L) (Word.mask 64)

let test_extract () =
  Alcotest.(check word) "low byte" 0xEFL (Word.extract 0xDEADBEEFL ~pos:0 ~len:8);
  Alcotest.(check word) "mid nibble" 0xEL (Word.extract 0xDEADBEEFL ~pos:8 ~len:4);
  Alcotest.(check word) "high bits" 0xDEADL (Word.extract 0xDEADBEEFL ~pos:16 ~len:16);
  Alcotest.(check word) "full" 0xDEADBEEFL (Word.extract 0xDEADBEEFL ~pos:0 ~len:64);
  Alcotest.(check word) "top bit of negative" 1L (Word.extract (-1L) ~pos:63 ~len:1)

let test_sign_extend () =
  Alcotest.(check word) "positive" 0x7FL (Word.sign_extend 0x7FL ~bits:8);
  Alcotest.(check word) "negative byte" (-1L) (Word.sign_extend 0xFFL ~bits:8);
  Alcotest.(check word) "negative 12-bit" (-2048L) (Word.sign_extend 0x800L ~bits:12);
  Alcotest.(check word) "identity 64" 0x123456789ABCDEFL
    (Word.sign_extend 0x123456789ABCDEFL ~bits:64)

let test_align () =
  Alcotest.(check word) "down 64" 0x1000L (Word.align_down 0x103FL ~alignment:64);
  Alcotest.(check word) "already aligned" 0x1000L (Word.align_down 0x1000L ~alignment:64);
  Alcotest.(check bool) "is aligned" true (Word.is_aligned 0x1000L ~alignment:4096);
  Alcotest.(check bool) "not aligned" false (Word.is_aligned 0x1008L ~alignment:4096)

let test_bytes () =
  let w = 0x1122334455667788L in
  Alcotest.(check int) "byte 0" 0x88 (Word.byte_of w ~index:0);
  Alcotest.(check int) "byte 7" 0x11 (Word.byte_of w ~index:7);
  Alcotest.(check word) "set byte 0" 0x11223344556677FFL
    (Word.set_byte w ~index:0 ~byte:0xFF);
  Alcotest.(check word) "set byte 7" 0xAA22334455667788L
    (Word.set_byte w ~index:7 ~byte:0xAA)

let test_splitmix_deterministic () =
  Alcotest.(check word) "deterministic" (Word.splitmix64 42L) (Word.splitmix64 42L);
  Alcotest.(check bool) "distinct inputs differ" true
    (not (Int64.equal (Word.splitmix64 1L) (Word.splitmix64 2L)))

(* {1 Priv} *)

let test_priv () =
  Alcotest.(check bool) "M >= S" true (Priv.geq Priv.Machine Priv.Supervisor);
  Alcotest.(check bool) "S >= U" true (Priv.geq Priv.Supervisor Priv.User);
  Alcotest.(check bool) "U < M" false (Priv.geq Priv.User Priv.Machine);
  Alcotest.(check bool) "reflexive" true (Priv.geq Priv.User Priv.User);
  List.iter
    (fun p ->
      match Priv.of_int (Priv.to_int p) with
      | Some q -> Alcotest.(check bool) "roundtrip" true (Priv.equal p q)
      | None -> Alcotest.fail "of_int failed")
    [ Priv.User; Priv.Supervisor; Priv.Machine ];
  Alcotest.(check (option reject)) "2 is reserved" None (Priv.of_int 2)

(* {1 PMP} *)

let napot base size perm = Pmp.napot_entry ~base ~size ~perm ~locked:false

let test_pmp_napot_roundtrip () =
  List.iter
    (fun (base, size) ->
      let e = napot base size Pmp.read_write in
      let base', size' = Pmp.napot_range e in
      Alcotest.(check word) "base" base base';
      Alcotest.(check int64) "size" (Int64.of_int size) size')
    [ (0x8000_0000L, 8); (0x8000_0000L, 64); (0x8010_0000L, 0x10_0000);
      (0x8800_0000L, 0x1_0000); (0x8000_0000L, 0x8000_0000) ]

let test_pmp_basic_allow_deny () =
  let t = Pmp.create () in
  Pmp.set t 0 (napot 0x8800_0000L 0x1_0000 Pmp.no_access);
  Pmp.set t 15 (napot 0x8000_0000L 0x8000_0000 Pmp.full_access);
  let allows kind addr =
    Pmp.allows t ~priv:Priv.Supervisor ~kind ~addr ~size:8
  in
  Alcotest.(check bool) "host region readable" true (allows Pmp.Read 0x8000_1000L);
  Alcotest.(check bool) "host region writable" true (allows Pmp.Write 0x8000_1000L);
  Alcotest.(check bool) "protected region read denied" false (allows Pmp.Read 0x8800_0000L);
  Alcotest.(check bool) "protected region write denied" false (allows Pmp.Write 0x8800_8000L);
  Alcotest.(check bool) "just below protected ok" true (allows Pmp.Read 0x87FF_FFF8L);
  Alcotest.(check bool) "just above protected ok" true (allows Pmp.Read 0x8801_0000L)

let test_pmp_priority () =
  (* First matching entry wins, even if a later entry would allow. *)
  let t = Pmp.create () in
  Pmp.set t 0 (napot 0x8000_0000L 4096 Pmp.no_access);
  Pmp.set t 1 (napot 0x8000_0000L 0x8000_0000 Pmp.full_access);
  Alcotest.(check bool) "deny entry shadows allow" false
    (Pmp.allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:0x8000_0100L ~size:8);
  Alcotest.(check bool) "outside deny entry allowed" true
    (Pmp.allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:0x8000_2000L ~size:8)

let test_pmp_machine_mode () =
  let t = Pmp.create () in
  Pmp.set t 0 (napot 0x8000_0000L 4096 Pmp.no_access);
  Alcotest.(check bool) "machine bypasses unlocked entry" true
    (Pmp.allows t ~priv:Priv.Machine ~kind:Pmp.Write ~addr:0x8000_0000L ~size:8);
  Pmp.set t 0
    (Pmp.napot_entry ~base:0x8000_0000L ~size:4096 ~perm:Pmp.no_access ~locked:true);
  Alcotest.(check bool) "locked entry constrains machine" false
    (Pmp.allows t ~priv:Priv.Machine ~kind:Pmp.Write ~addr:0x8000_0000L ~size:8)

let test_pmp_no_match_default () =
  let t = Pmp.create () in
  (* No entries at all: everything allowed (PMP not implemented). *)
  Alcotest.(check bool) "no entries: S allowed" true
    (Pmp.allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:0x8000_0000L ~size:8);
  (* One active entry: non-matching S/U accesses are denied; M allowed. *)
  Pmp.set t 0 (napot 0x9000_0000L 4096 Pmp.full_access);
  Alcotest.(check bool) "active entries: S no-match denied" false
    (Pmp.allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:0x8000_0000L ~size:8);
  Alcotest.(check bool) "active entries: M no-match allowed" true
    (Pmp.allows t ~priv:Priv.Machine ~kind:Pmp.Read ~addr:0x8000_0000L ~size:8)

let test_pmp_partial_match_fails () =
  let t = Pmp.create () in
  Pmp.set t 0 (napot 0x8000_0040L 64 Pmp.full_access);
  (* An 8-byte access straddling into the region only partially matches
     and must fail even though the matching part is allowed. *)
  Alcotest.(check bool) "straddling access denied" false
    (Pmp.allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:0x8000_003CL ~size:8)

let test_pmp_tor () =
  let t = Pmp.create () in
  Pmp.set t 0 { Pmp.mode = Pmp.Tor; perm = Pmp.read_only; locked = false;
                address = Int64.shift_right_logical 0x8000_1000L 2 };
  Alcotest.(check bool) "inside TOR region" true
    (Pmp.allows t ~priv:Priv.User ~kind:Pmp.Read ~addr:0x8000_0800L ~size:4);
  Alcotest.(check bool) "TOR write denied" false
    (Pmp.allows t ~priv:Priv.User ~kind:Pmp.Write ~addr:0x8000_0800L ~size:4);
  Alcotest.(check bool) "above TOR top denied" false
    (Pmp.allows t ~priv:Priv.User ~kind:Pmp.Read ~addr:0x8000_1000L ~size:4)

let test_pmp_exec_permission () =
  let t = Pmp.create () in
  Pmp.set t 0 (napot 0x8000_0000L 4096 Pmp.read_write);
  Alcotest.(check bool) "execute denied on rw region" false
    (Pmp.allows t ~priv:Priv.User ~kind:Pmp.Execute ~addr:0x8000_0000L ~size:4)

let test_pmp_denied_entry_index () =
  let t = Pmp.create () in
  Pmp.set t 3 (napot 0x8800_0000L 0x1_0000 Pmp.no_access);
  Pmp.set t 15 (napot 0x8000_0000L 0x8000_0000 Pmp.full_access);
  (match Pmp.check t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr:0x8800_0000L ~size:8 with
  | Pmp.Denied { entry_index = Some 3 } -> ()
  | Pmp.Denied { entry_index } ->
    Alcotest.failf "wrong entry index: %s"
      (match entry_index with Some i -> string_of_int i | None -> "none")
  | Pmp.Allowed -> Alcotest.fail "expected denial")

(* {1 CSR} *)

let test_csr_rw_privilege () =
  let t = Csr.create () in
  (match Csr.write t ~priv:Priv.Machine Csr.Mtvec 0x100L with
  | Ok () -> ()
  | Error () -> Alcotest.fail "machine write should succeed");
  (match Csr.write t ~priv:Priv.Supervisor Csr.Mtvec 0x200L with
  | Error () -> ()
  | Ok () -> Alcotest.fail "supervisor write to M CSR should fail");
  (match Csr.read t ~priv:Priv.Machine Csr.Mtvec with
  | Csr.Ok v -> Alcotest.(check word) "readback" 0x100L v
  | Csr.Illegal_instruction -> Alcotest.fail "machine read should succeed");
  (match Csr.read t ~priv:Priv.User Csr.Mtvec with
  | Csr.Illegal_instruction -> ()
  | Csr.Ok _ -> Alcotest.fail "user read of M CSR should fail")

let test_csr_satp_supervisor () =
  let t = Csr.create () in
  (match Csr.write t ~priv:Priv.Supervisor Csr.Satp 0xABCL with
  | Ok () -> ()
  | Error () -> Alcotest.fail "satp writable from S");
  (match Csr.read t ~priv:Priv.Supervisor Csr.Satp with
  | Csr.Ok v -> Alcotest.(check word) "satp value" 0xABCL v
  | Csr.Illegal_instruction -> Alcotest.fail "satp readable from S");
  (match Csr.write t ~priv:Priv.User Csr.Satp 0L with
  | Error () -> ()
  | Ok () -> Alcotest.fail "satp not writable from U")

let test_csr_counter_views () =
  let t = Csr.create () in
  Csr.bump_counter t 4 ~by:7;
  (match Csr.read t ~priv:Priv.User (Csr.Hpmcounter 4) with
  | Csr.Ok v -> Alcotest.(check word) "user view aliases machine counter" 7L v
  | Csr.Illegal_instruction -> Alcotest.fail "counters enabled by default");
  (* Counter views are read-only. *)
  (match Csr.write t ~priv:Priv.Machine (Csr.Hpmcounter 4) 0L with
  | Error () -> ()
  | Ok () -> Alcotest.fail "counter views are read-only");
  (* Gating via mcounteren. *)
  Csr.raw_write t Csr.Mcounteren 0L;
  (match Csr.read t ~priv:Priv.User (Csr.Hpmcounter 4) with
  | Csr.Illegal_instruction -> ()
  | Csr.Ok _ -> Alcotest.fail "gated counter should fault");
  (* Machine mode is never gated. *)
  (match Csr.read t ~priv:Priv.Machine (Csr.Mhpmcounter 4) with
  | Csr.Ok v -> Alcotest.(check word) "machine read survives gating" 7L v
  | Csr.Illegal_instruction -> Alcotest.fail "machine read gated?")

let test_csr_reset_counters () =
  let t = Csr.create () in
  List.iter (fun n -> Csr.bump_counter t n ~by:5) Csr.modelled_counters;
  Csr.reset_counters t;
  List.iter
    (fun n ->
      let id = match n with 0 -> Csr.Mcycle | 2 -> Csr.Minstret | n -> Csr.Mhpmcounter n in
      Alcotest.(check word) (Csr.name id ^ " reset") 0L (Csr.raw_read t id))
    Csr.modelled_counters

let test_csr_raw_unchecked () =
  let t = Csr.create () in
  Csr.raw_write t (Csr.Mhpmcounter 5) 0xFEEDL;
  (* raw_read ignores privilege: this is the datapath read that leaks in
     case M1. *)
  Alcotest.(check word) "raw read bypasses checks" 0xFEEDL
    (Csr.raw_read t (Csr.Mhpmcounter 5))

(* {1 Memory} *)

let test_memory_rw () =
  let m = Memory.create () in
  Memory.write m ~addr:0x1000L ~size:8 0x1122334455667788L;
  Alcotest.(check word) "read back" 0x1122334455667788L
    (Memory.read m ~addr:0x1000L ~size:8);
  Alcotest.(check word) "uninitialised is zero" 0L (Memory.read m ~addr:0x2000L ~size:8);
  Alcotest.(check word) "byte read" 0x88L (Memory.read m ~addr:0x1000L ~size:1);
  Alcotest.(check word) "half read" 0x7788L (Memory.read m ~addr:0x1000L ~size:2);
  Alcotest.(check word) "word read" 0x55667788L (Memory.read m ~addr:0x1000L ~size:4)

let test_memory_misaligned () =
  let m = Memory.create () in
  Memory.write m ~addr:0x1000L ~size:8 0x1122334455667788L;
  Memory.write m ~addr:0x1008L ~size:8 0xAABBCCDDEEFF0011L;
  (* A straddling read assembles bytes from both granules. *)
  Alcotest.(check word) "straddling read" 0xEEFF001111223344L
    (Memory.read m ~addr:0x1004L ~size:8);
  (* A straddling write updates both granules. *)
  Memory.write m ~addr:0x1006L ~size:4 0xDEADBEEFL;
  Alcotest.(check word) "low granule" 0xBEEF334455667788L
    (Memory.read m ~addr:0x1000L ~size:8);
  Alcotest.(check word) "high granule" 0xAABBCCDDEEFFDEADL
    (Memory.read m ~addr:0x1008L ~size:8)

let test_memory_lines () =
  let m = Memory.create () in
  for i = 0 to 7 do
    Memory.write m ~addr:(Int64.of_int (0x1000 + (i * 8))) ~size:8 (Int64.of_int (i + 1))
  done;
  let line = Memory.read_line m ~addr:0x1020L in
  Alcotest.(check int) "line length" 8 (Array.length line);
  Alcotest.(check word) "word 0" 1L line.(0);
  Alcotest.(check word) "word 7" 8L line.(7);
  let line2 = Array.map (Int64.mul 10L) line in
  Memory.write_line m ~addr:0x2000L line2;
  Alcotest.(check word) "written line" 30L (Memory.read m ~addr:0x2010L ~size:8)

(* {2 Model test}

   The reference is the granule-keyed memory the line-keyed [Memory]
   replaced: one table entry per written 8-byte granule.  [Memory] must
   return the same result for every operation, and agree on
   [words_written] after each one. *)

module Memory_reference = struct
  type t = (int64, Word.t) Hashtbl.t

  let line_bytes = 64
  let create () : t = Hashtbl.create 4096

  type capture = (int64 * Word.t) array

  let capture (t : t) : capture = Array.of_seq (Hashtbl.to_seq t)

  let restore_capture (cap : capture) ~(into : t) =
    Hashtbl.reset into;
    Array.iter (fun (g, w) -> Hashtbl.replace into g w) cap

  let granule addr = Int64.shift_right_logical addr 3
  let granule_base addr = Word.align_down addr ~alignment:8

  let read_word t addr =
    Option.value (Hashtbl.find_opt t (granule addr)) ~default:0L

  let write_word t addr v = Hashtbl.replace t (granule addr) v

  let read_byte t addr =
    let w = read_word t (granule_base addr) in
    Word.byte_of w ~index:(Int64.to_int (Int64.rem addr 8L))

  let write_byte t addr byte =
    let base = granule_base addr in
    let w = read_word t base in
    write_word t base (Word.set_byte w ~index:(Int64.to_int (Int64.rem addr 8L)) ~byte)

  let read t ~addr ~size =
    assert (size = 1 || size = 2 || size = 4 || size = 8);
    if size = 8 && Word.is_aligned addr ~alignment:8 then read_word t addr
    else begin
      let v = ref 0L in
      for i = size - 1 downto 0 do
        let byte = read_byte t (Int64.add addr (Int64.of_int i)) in
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
      done;
      !v
    end

  let write t ~addr ~size v =
    assert (size = 1 || size = 2 || size = 4 || size = 8);
    if size = 8 && Word.is_aligned addr ~alignment:8 then write_word t addr v
    else
      for i = 0 to size - 1 do
        write_byte t (Int64.add addr (Int64.of_int i)) (Word.byte_of v ~index:i)
      done

  let read_line t ~addr =
    let base = Word.align_down addr ~alignment:line_bytes in
    Array.init (line_bytes / 8) (fun i ->
        read_word t (Int64.add base (Int64.of_int (i * 8))))

  let write_line t ~addr line =
    assert (Array.length line = line_bytes / 8);
    let base = Word.align_down addr ~alignment:line_bytes in
    Array.iteri (fun i w -> write_word t (Int64.add base (Int64.of_int (i * 8))) w) line

  let words_written t = Hashtbl.length t
end

type mem_op =
  | M_write of int64 * int * int64
  | M_write_line of int64 * int64
  | M_read of int64 * int
  | M_read_line of int64
  | M_capture
  | M_restore

(* Low addresses cover eight adjacent lines at every byte offset, so
   sub-word and misaligned accesses straddle granules and lines.  High
   addresses (bit 63 set, up to the last line of the address space) are
   line-path and aligned-word addresses only: the reference's byte
   accessors assume a non-negative address. *)
let memory_low_lines = 8
let memory_low_base = 0x1000L
let memory_high_bases = [ Int64.min_int; 0xC000_0000_0000_0040L; -64L ]

let gen_memory_case =
  let open QCheck.Gen in
  let low =
    map2
      (fun line off -> Int64.add memory_low_base (Int64.of_int ((line * 64) + off)))
      (int_bound (memory_low_lines - 1)) (int_bound 63)
  in
  let high = map2 (fun b off -> Int64.add b (Int64.of_int off)) (oneofl memory_high_bases) (int_bound 63) in
  let aligned = map (fun a -> Word.align_down a ~alignment:8) in
  let line_addr = frequency [ (3, low); (1, high) ] in
  let op =
    frequency
      [
        (4, map3 (fun a k v -> M_write (a, 1 lsl k, v)) low (int_bound 3) ui64);
        (2, map2 (fun a v -> M_write (a, 8, v)) (aligned line_addr) ui64);
        (2, map2 (fun a v -> M_write_line (a, v)) line_addr ui64);
        (3, map2 (fun a k -> M_read (a, 1 lsl k)) low (int_bound 3));
        (1, map (fun a -> M_read (a, 8)) (aligned line_addr));
        (2, map (fun a -> M_read_line a) line_addr);
        (1, return M_capture);
        (1, return M_restore);
      ]
  in
  list_size (int_range 1 60) op

let print_memory_case ops =
  String.concat "; "
    (List.map
       (function
         | M_write (a, size, v) -> Printf.sprintf "write %Lx/%d %Lx" a size v
         | M_write_line (a, v) -> Printf.sprintf "write_line %Lx %Lx" a v
         | M_read (a, size) -> Printf.sprintf "read %Lx/%d" a size
         | M_read_line a -> Printf.sprintf "read_line %Lx" a
         | M_capture -> "capture"
         | M_restore -> "restore")
       ops)

(* Distinct words per line, derived from one generated value. *)
let memory_line_of v = Array.init 8 (fun i -> Int64.add v (Int64.of_int (i * 0x0101)))

let prop_memory_matches_reference =
  QCheck.Test.make ~name:"line-keyed memory matches the granule-keyed reference" ~count:300
    (QCheck.make ~print:print_memory_case gen_memory_case)
    (fun ops ->
      let m = Memory.create () and r = Memory_reference.create () in
      let saved = ref None in
      let same_result op =
        match op with
        | M_write (addr, size, v) ->
          Memory.write m ~addr ~size v;
          Memory_reference.write r ~addr ~size v;
          true
        | M_write_line (addr, v) ->
          Memory.write_line m ~addr (memory_line_of v);
          Memory_reference.write_line r ~addr (memory_line_of v);
          true
        | M_read (addr, size) -> Memory.read m ~addr ~size = Memory_reference.read r ~addr ~size
        | M_read_line addr -> Memory.read_line m ~addr = Memory_reference.read_line r ~addr
        | M_capture ->
          saved := Some (Memory.capture m, Memory_reference.capture r);
          true
        | M_restore ->
          Option.iter
            (fun (cap, cap_r) ->
              Memory.restore_capture cap ~into:m;
              Memory_reference.restore_capture cap_r ~into:r)
            !saved;
          true
      in
      (* Every line either side can hold, read back from the live memory
         and from a capture round trip into a memory holding other data. *)
      let lines =
        List.init (memory_low_lines + 1) (fun i -> Int64.add memory_low_base (Int64.of_int (i * 64)))
        @ memory_high_bases
      in
      let restored = Memory.create () in
      Memory.write_line restored ~addr:0x40L (memory_line_of 7L);
      List.for_all
        (fun op ->
          same_result op && Memory.words_written m = Memory_reference.words_written r)
        ops
      &&
      (Memory.restore_capture (Memory.capture m) ~into:restored;
       Memory.words_written restored = Memory_reference.words_written r
       && List.for_all
            (fun addr ->
              let expected = Memory_reference.read_line r ~addr in
              Memory.read_line m ~addr = expected && Memory.read_line restored ~addr = expected)
            lines))

(* {1 Instr and Program} *)

let test_instr_pp () =
  Alcotest.(check string) "load" "ld x15, 0x8(x14)"
    (Instr.to_string (Instr.ld Instr.a5 Instr.a4 8L));
  Alcotest.(check string) "branch" "beq x5, x6, loop"
    (Instr.to_string (Instr.Branch (Instr.Eq, Instr.t0, Instr.t1, "loop")));
  Alcotest.(check string) "csr" "csrr x10, satp"
    (Instr.to_string (Instr.Csrr (Instr.a0, Csr.Satp)))

(* [to_string] renders commits without [Format]; these are the texts
   the [Format]-based printer gave, and [Word.to_hex] is [Printf]'s
   "0x%Lx". *)
let test_instr_to_string () =
  List.iter
    (fun (expected, i) -> Alcotest.(check string) expected expected (Instr.to_string i))
    Instr.
      [
        ("li x10, 0x0", Li (a0, 0L));
        ("li x10, 0xffffffffffffffff", Li (a0, -1L));
        ("addi x0, x5, 0x8000000000000000", Alui (Add, 0, 5, Int64.min_int));
        ("srli x31, x1, 0x7fffffffffffffff", Alui (Srl, 31, 1, Int64.max_int));
        ("xor x1, x2, x31", Alu (Xor, 1, 2, 31));
        ("lb x7, 0xfff(x2)", Load { width = Byte; rd = 7; base = 2; offset = 0xfffL });
        ("sh x30, 0x0(x0)", Store { width = Half; rs = 30; base = 0; offset = 0L });
        ("lw x1, 0xfffffffffffffff8(x8)", Load { width = Word_; rd = 1; base = 8; offset = -8L });
        ("sd x2, 0x10(x3)", Store { width = Double; rs = 2; base = 3; offset = 0x10L });
        ("bge x3, x4, loop_1", Branch (Ge, 3, 4, "loop_1"));
        ("j done", Jal "done");
        ("csrr x9, mhpmcounter31", Csrr (9, Csr.Mhpmcounter 31));
        ("csrw pmpaddr15, x12", Csrw (Csr.Pmpaddr 15, 12));
        ("ecall", Ecall);
        ("halt", Halt);
      ];
  List.iter
    (fun v -> Alcotest.(check string) "to_hex" (Printf.sprintf "0x%Lx" v) (Word.to_hex v))
    [ 0L; 1L; -1L; 0x10L; 0xf0L; 0xfffL; 0x8000_0000L; 0x123456789abcdefL; Int64.min_int; Int64.max_int ]

let test_width_bytes () =
  Alcotest.(check int) "byte" 1 (Instr.width_bytes Instr.Byte);
  Alcotest.(check int) "half" 2 (Instr.width_bytes Instr.Half);
  Alcotest.(check int) "word" 4 (Instr.width_bytes Instr.Word_);
  Alcotest.(check int) "double" 8 (Instr.width_bytes Instr.Double)

let test_program_layout () =
  let p = Program.of_instrs ~base:0x8000_0000L [ Instr.Nop; Instr.Fence; Instr.Halt ] in
  Alcotest.(check int) "length" 3 (Program.length p);
  (match Program.fetch p ~pc:0x8000_0004L with
  | Some Instr.Fence -> ()
  | _ -> Alcotest.fail "expected fence at +4");
  Alcotest.(check bool) "past end" true (Program.fetch p ~pc:0x8000_000CL = None);
  Alcotest.(check bool) "below base" true (Program.fetch p ~pc:0x7FFF_FFFCL = None);
  Alcotest.(check bool) "unaligned" true (Program.fetch p ~pc:0x8000_0002L = None)

let test_program_labels () =
  let p =
    Program.assemble ~base:0x8000_0000L
      [
        Program.Instr (Instr.Branch (Instr.Eq, 0, 0, "end"));
        Program.Instr Instr.Nop;
        Program.Label "end";
        Program.Instr Instr.Halt;
      ]
  in
  Alcotest.(check word) "label resolves after nop" 0x8000_0008L (Program.resolve p "end")

let test_program_errors () =
  Alcotest.check_raises "undefined label"
    (Invalid_argument "Program.assemble: undefined label nowhere") (fun () ->
      ignore (Program.assemble ~base:0L [ Program.Instr (Instr.Jal "nowhere") ]));
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Program.assemble: duplicate label here") (fun () ->
      ignore (Program.assemble ~base:0L [ Program.Label "here"; Program.Label "here" ]))

(* {1 Page tables} *)

let test_pte_roundtrip () =
  let perm = { Page_table.read = true; write = true; execute = false; user = true } in
  let leaf = Page_table.Leaf { paddr = 0x8004_0000L; perm } in
  (match Page_table.decode_pte (Page_table.encode_pte leaf) with
  | Page_table.Leaf { paddr; perm = p } ->
    Alcotest.(check word) "paddr" 0x8004_0000L paddr;
    Alcotest.(check bool) "read" true p.Page_table.read;
    Alcotest.(check bool) "write" true p.Page_table.write;
    Alcotest.(check bool) "exec" false p.Page_table.execute
  | _ -> Alcotest.fail "expected leaf");
  (match Page_table.decode_pte (Page_table.encode_pte (Page_table.Pointer 0x8020_1000L)) with
  | Page_table.Pointer base -> Alcotest.(check word) "pointer base" 0x8020_1000L base
  | _ -> Alcotest.fail "expected pointer");
  (match Page_table.decode_pte 0L with
  | Page_table.Invalid -> ()
  | _ -> Alcotest.fail "zero PTE is invalid")

let test_satp_roundtrip () =
  let root = 0x8020_0000L in
  (match Page_table.root_of_satp (Page_table.satp_of_root root) with
  | Some r -> Alcotest.(check word) "root roundtrip" root r
  | None -> Alcotest.fail "satp should decode");
  Alcotest.(check bool) "bare satp" true (Page_table.root_of_satp 0L = None)

let test_vpn_slicing () =
  let vaddr = Int64.logor (Int64.shift_left 3L 30)
                (Int64.logor (Int64.shift_left 5L 21) (Int64.shift_left 7L 12)) in
  Alcotest.(check int) "vpn2" 3 (Page_table.vpn vaddr ~level:2);
  Alcotest.(check int) "vpn1" 5 (Page_table.vpn vaddr ~level:1);
  Alcotest.(check int) "vpn0" 7 (Page_table.vpn vaddr ~level:0)

let test_map_and_walk () =
  let mem = Memory.create () in
  let b = Page_table.create_builder mem ~table_region:0x8020_0000L () in
  Memory.write mem ~addr:0x8004_0100L ~size:8 0xFACEL;
  Page_table.map b ~vaddr:0x4000_0000L ~paddr:0x8004_0000L ~perm:Page_table.supervisor_rw;
  (match Page_table.walk mem ~root:(Page_table.root b) ~vaddr:0x4000_0100L with
  | Page_table.Translated { paddr; perm; steps } ->
    Alcotest.(check word) "translated address" 0x8004_0100L paddr;
    Alcotest.(check bool) "readable" true perm.Page_table.read;
    Alcotest.(check int) "three-level walk" 3 (List.length steps)
  | Page_table.Fault _ -> Alcotest.fail "walk should succeed");
  (match Page_table.walk mem ~root:(Page_table.root b) ~vaddr:0x4020_0000L with
  | Page_table.Fault _ -> ()
  | Page_table.Translated _ -> Alcotest.fail "unmapped vaddr should fault")

let test_map_range () =
  let mem = Memory.create () in
  let b = Page_table.create_builder mem ~table_region:0x8020_0000L () in
  Page_table.map_range b ~vaddr:0x4000_0000L ~paddr:0x8004_0000L ~size:16384L
    ~perm:Page_table.user_rw;
  List.iter
    (fun page ->
      let vaddr = Int64.add 0x4000_0000L (Int64.of_int (page * 4096)) in
      match Page_table.walk mem ~root:(Page_table.root b) ~vaddr with
      | Page_table.Translated { paddr; _ } ->
        Alcotest.(check word)
          (Printf.sprintf "page %d" page)
          (Int64.add 0x8004_0000L (Int64.of_int (page * 4096)))
          paddr
      | Page_table.Fault _ -> Alcotest.failf "page %d should map" page)
    [ 0; 1; 2; 3 ]

(* {1 Property-based tests} *)

let prop_extract_of_mask =
  QCheck.Test.make ~name:"extract of set_byte recovers the byte" ~count:200
    QCheck.(pair int64 (pair (int_bound 7) (int_bound 255)))
    (fun (w, (index, byte)) ->
      Word.byte_of (Word.set_byte w ~index ~byte) ~index = byte)

let prop_align_down_le =
  QCheck.Test.make ~name:"align_down is <= and aligned" ~count:200
    QCheck.(pair (map Int64.abs int64) (int_bound 3))
    (fun (w, k) ->
      let alignment = 1 lsl (3 + k) in
      let a = Word.align_down w ~alignment in
      Int64.unsigned_compare a w <= 0 && Word.is_aligned a ~alignment)

let prop_napot_contains_base =
  QCheck.Test.make ~name:"napot region covers its base and size" ~count:100
    QCheck.(int_bound 10)
    (fun k ->
      let size = 64 lsl k in
      let base = Int64.of_int (0x4000_0000 + (size * 3)) in
      let base = Word.align_down base ~alignment:size in
      let t = Pmp.create () in
      Pmp.set t 0 (napot base size Pmp.full_access);
      Pmp.allows t ~priv:Priv.User ~kind:Pmp.Read ~addr:base ~size:8
      && Pmp.allows t ~priv:Priv.User ~kind:Pmp.Read
           ~addr:(Int64.add base (Int64.of_int (size - 8)))
           ~size:8
      && not
           (Pmp.allows t ~priv:Priv.User ~kind:Pmp.Read
              ~addr:(Int64.add base (Int64.of_int size))
              ~size:8))

let prop_memory_rw_roundtrip =
  QCheck.Test.make ~name:"memory read-after-write roundtrip" ~count:200
    QCheck.(pair int64 (pair (map Int64.abs int64) (int_bound 3)))
    (fun (v, (addr, k)) ->
      let size = 1 lsl k in
      let addr = Int64.logand addr 0xFFFF_FFFFL in
      let m = Memory.create () in
      Memory.write m ~addr ~size v;
      Int64.equal (Memory.read m ~addr ~size)
        (if size = 8 then v else Word.extract v ~pos:0 ~len:(size * 8)))

let prop_walk_matches_mapping =
  QCheck.Test.make ~name:"page walk returns the mapped frame" ~count:50
    QCheck.(pair (int_bound 100) (int_bound 4095))
    (fun (page, offset) ->
      let mem = Memory.create () in
      let b = Page_table.create_builder mem ~table_region:0x8020_0000L () in
      let vaddr = Int64.of_int (0x4000_0000 + (page * 4096)) in
      let paddr = Int64.of_int (0x8004_0000 + (page * 4096)) in
      Page_table.map b ~vaddr ~paddr ~perm:Page_table.user_rw;
      match
        Page_table.walk mem ~root:(Page_table.root b)
          ~vaddr:(Int64.add vaddr (Int64.of_int offset))
      with
      | Page_table.Translated { paddr = got; _ } ->
        Int64.equal got (Int64.add paddr (Int64.of_int offset))
      | Page_table.Fault _ -> false)

(* {1 PMP: differential against the reference matcher}

   The matcher below is the original one, which decoded each entry's
   range on every probe ([Some (base, size)] with boxed words).
   [Pmp.check] now decodes ranges once per update and matches in place;
   it must return the same verdict on every entry table and access. *)

module Pmp_reference = struct
  let entry_byte_range (t : Pmp.entry array) i =
    let e = t.(i) in
    match e.Pmp.mode with
    | Pmp.Off -> None
    | Pmp.Na4 -> Some (Int64.shift_left e.Pmp.address 2, 4L)
    | Pmp.Napot -> Some (Pmp.napot_range e)
    | Pmp.Tor ->
      let base = if i = 0 then 0L else Int64.shift_left t.(i - 1).Pmp.address 2 in
      let top = Int64.shift_left e.Pmp.address 2 in
      if Int64.unsigned_compare top base <= 0 then None
      else Some (base, Int64.sub top base)

  type match_kind = No_match | Partial | Full

  let match_entry t i ~addr ~size =
    match entry_byte_range t i with
    | None -> No_match
    | Some (base, range_size) ->
      let access_end = Int64.add addr (Int64.of_int size) in
      let range_end = Int64.add base range_size in
      let starts_inside =
        Int64.unsigned_compare addr base >= 0
        && Int64.unsigned_compare addr range_end < 0
      in
      let ends_inside =
        Int64.unsigned_compare access_end base > 0
        && Int64.unsigned_compare access_end range_end <= 0
      in
      if starts_inside && ends_inside then Full
      else if starts_inside || ends_inside then Partial
      else No_match

  let perm_allows (perm : Pmp.permission) = function
    | Pmp.Read -> perm.Pmp.read
    | Pmp.Write -> perm.Pmp.write
    | Pmp.Execute -> perm.Pmp.execute

  let check t ~priv ~kind ~addr ~size =
    let any_active = Array.exists (fun e -> e.Pmp.mode <> Pmp.Off) t in
    let rec search i =
      if i >= Pmp.entry_count then
        if Priv.equal priv Priv.Machine || not any_active then Pmp.Allowed
        else Pmp.Denied { entry_index = None }
      else
        match match_entry t i ~addr ~size with
        | No_match -> search (i + 1)
        | Partial -> Pmp.Denied { entry_index = Some i }
        | Full ->
          let e = t.(i) in
          if Priv.equal priv Priv.Machine && not e.Pmp.locked then Pmp.Allowed
          else if perm_allows e.Pmp.perm kind then Pmp.Allowed
          else Pmp.Denied { entry_index = Some i }
    in
    search 0
end

(* Entry addresses cluster in a small window so that regions overlap,
   abut and order TOR pairs both ways; a few are arbitrary words (all
   ones included) to reach the wrap-around corners of NAPOT decoding. *)
let gen_pmp_address =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Int64.of_int (0x2000_0000 + (k * 0x40))) (int_bound 64));
        (2, map (fun (k, ones) -> Int64.logor (Int64.of_int (0x2000_0000 + (k * 0x40))) (Word.mask ones))
              (pair (int_bound 64) (int_bound 12)));
        (1, oneofl [ 0L; -1L; Int64.max_int; Int64.min_int; 0x3FFF_FFFF_FFFF_FFFFL ]);
        (1, ui64);
      ])

let gen_pmp_entry =
  QCheck.Gen.(
    map
      (fun (mode, (r, w, x), locked, address) ->
        { Pmp.mode; perm = { Pmp.read = r; write = w; execute = x }; locked; address })
      (quad
         (oneofl [ Pmp.Off; Pmp.Tor; Pmp.Na4; Pmp.Napot ])
         (triple bool bool bool) bool gen_pmp_address))

(* Accesses land on, just inside and just outside region edges. *)
let pmp_edges entries =
  List.concat
    (List.init Pmp.entry_count (fun i ->
         match Pmp_reference.entry_byte_range entries i with
         | None -> []
         | Some (base, size) -> [ base; Int64.add base size ]))

let gen_pmp_case =
  QCheck.Gen.(
    array_size (return Pmp.entry_count) gen_pmp_entry >>= fun entries ->
    let edges = pmp_edges entries in
    let gen_addr =
      if edges = [] then gen_pmp_address
      else
        frequency
          [
            (4, map2 (fun e d -> Int64.add e (Int64.of_int (d - 8))) (oneofl edges) (int_bound 16));
            (1, gen_pmp_address);
          ]
    in
    list_size (return 24)
      (quad
         (oneofl [ Priv.User; Priv.Supervisor; Priv.Machine ])
         (oneofl [ Pmp.Read; Pmp.Write; Pmp.Execute ])
         gen_addr (int_range 1 8))
    >|= fun accesses -> (entries, accesses))

let prop_pmp_matches_reference =
  QCheck.Test.make ~name:"PMP check matches the reference matcher" ~count:500
    (QCheck.make gen_pmp_case)
    (fun (entries, accesses) ->
      let t = Pmp.create () in
      Array.iteri (Pmp.set t) entries;
      let copy = Pmp.copy t in
      List.for_all
        (fun (priv, kind, addr, size) ->
          let expected = Pmp_reference.check entries ~priv ~kind ~addr ~size in
          Pmp.check t ~priv ~kind ~addr ~size = expected
          && Pmp.check copy ~priv ~kind ~addr ~size = expected
          && Pmp.allows t ~priv ~kind ~addr ~size = (expected = Pmp.Allowed))
        accesses)

(* [allows_region] may refuse a region whose words are all allowed, but
   must never grant one holding a denied word: entries lying strictly
   inside the region and entries straddling its edges both count. *)
let prop_pmp_region_implies_words =
  QCheck.Test.make ~name:"PMP region grant implies every word's grant" ~count:500
    (QCheck.make
       QCheck.Gen.(
         gen_pmp_case >>= fun (entries, accesses) ->
         map (fun words -> (entries, accesses, words)) (int_range 1 40)))
    (fun (entries, accesses, words) ->
      let t = Pmp.create () in
      Array.iteri (Pmp.set t) entries;
      List.for_all
        (fun (priv, kind, addr, _) ->
          let addr = Word.align_down addr ~alignment:8 in
          (not (Pmp.allows_region t ~priv ~kind ~addr ~size:(8 * words)))
          || List.for_all
               (fun i -> Pmp.allows t ~priv ~kind ~addr:(Int64.add addr (Int64.of_int (8 * i))) ~size:8)
               (List.init words Fun.id))
        accesses)

let test_pmp_region () =
  let t = Pmp.create () in
  Pmp.set t 1 (Pmp.napot_entry ~base:0x8000_1000L ~size:64 ~perm:Pmp.read_only ~locked:true);
  Pmp.set t 15 (Pmp.napot_entry ~base:0x8000_0000L ~size:0x1_0000 ~perm:Pmp.full_access ~locked:false);
  let region addr size = Pmp.allows_region t ~priv:Priv.Machine ~kind:Pmp.Write ~addr ~size in
  Alcotest.(check bool) "inside the granting entry" true (region 0x8000_2000L 0x1000);
  Alcotest.(check bool) "locked entry strictly inside" false (region 0x8000_0F00L 0x200);
  Alcotest.(check bool) "straddles the locked entry" false (region 0x8000_1020L 0x40);
  Alcotest.(check bool) "straddles the outer entry" false (region 0x8000_FF00L 0x200);
  Alcotest.(check bool) "no entry: machine default" true (region 0x9000_0000L 0x100);
  Alcotest.(check bool) "wraps the address space" false (region (-8L) 16);
  Alcotest.(check bool) "empty" false (region 0x8000_2000L 0)

let test_pmp_allows_allocates_nothing () =
  let t = Pmp.create () in
  Pmp.set t 0 (Pmp.napot_entry ~base:0x8800_0000L ~size:0x1_0000 ~perm:Pmp.no_access ~locked:false);
  Pmp.set t 15 (Pmp.napot_entry ~base:0x8000_0000L ~size:0x8000_0000 ~perm:Pmp.full_access ~locked:false);
  let addr = 0x8000_1000L in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Pmp.allows t ~priv:Priv.Supervisor ~kind:Pmp.Read ~addr ~size:8))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words for 10k checks" words) true (words < 100.)

(* {1 CSR: model test}

   The model is the original register file, a plain table keyed by the
   canonical CSR id.  [Csr.t] keeps mcycle, minstret and
   mhpmcounter3..31 unboxed and must be observably identical to it. *)

module Csr_model = struct
  type t = (Csr.id, Word.t) Hashtbl.t

  let canonical = function
    | Csr.Cycle -> Csr.Mcycle
    | Csr.Instret -> Csr.Minstret
    | Csr.Hpmcounter n -> Csr.Mhpmcounter n
    | id -> id

  let create () : t =
    let t = Hashtbl.create 64 in
    Hashtbl.replace t Csr.Mcounteren (Word.mask 32);
    Hashtbl.replace t Csr.Scounteren (Word.mask 32);
    t

  let raw_read t id = Option.value (Hashtbl.find_opt t (canonical id)) ~default:0L
  let raw_write t id v = Hashtbl.replace t (canonical id) v

  let counter_enabled t ~priv id =
    match Csr.counter_index id with
    | None -> true
    | Some bit ->
      let gate reg = Int64.logand (Int64.shift_right_logical (raw_read t reg) bit) 1L = 1L in
      (match priv with
      | Priv.Machine -> true
      | Priv.Supervisor -> gate Csr.Mcounteren
      | Priv.User -> gate Csr.Mcounteren && gate Csr.Scounteren)

  let read t ~priv id =
    if Priv.geq priv (Csr.required_priv id) && counter_enabled t ~priv id then
      Csr.Ok (raw_read t id)
    else Csr.Illegal_instruction

  let write t ~priv id v =
    if Csr.is_counter id then Error ()
    else if Priv.geq priv (Csr.required_priv id) then begin
      raw_write t id v;
      Ok ()
    end
    else Error ()

  let counter_id = function 0 -> Csr.Mcycle | 2 -> Csr.Minstret | n -> Csr.Mhpmcounter n
  let bump_counter t n ~by = raw_write t (counter_id n) (Int64.add (raw_read t (counter_id n)) (Int64.of_int by))
  let reset_counters t = List.iter (fun n -> raw_write t (counter_id n) 0L) Csr.modelled_counters
end

(* Counter indices inside and outside the unboxed range, user aliases
   and a few ordinary CSRs. *)
let csr_ids =
  let counters = [ -1; 0; 1; 2; 3; 4; 10; 17; 31; 32; 40 ] in
  [ Csr.Cycle; Csr.Instret; Csr.Mcycle; Csr.Minstret; Csr.Mcounteren; Csr.Scounteren;
    Csr.Satp; Csr.Mtvec; Csr.Mscratch ]
  @ List.map (fun n -> Csr.Hpmcounter n) counters
  @ List.map (fun n -> Csr.Mhpmcounter n) counters

type csr_op =
  | Raw_write of Csr.id * Word.t
  | Write of Priv.t * Csr.id * Word.t
  | Bump of int * int
  | Reset_counters
  | Save
  | Restore

let gen_csr_op =
  QCheck.Gen.(
    let id = oneofl csr_ids and priv = oneofl [ Priv.User; Priv.Supervisor; Priv.Machine ] in
    let value = oneof [ oneofl [ 0L; 1L; -1L; Word.mask 32; 0x8L ]; ui64 ] in
    frequency
      [
        (3, map2 (fun id v -> Raw_write (id, v)) id value);
        (3, map3 (fun p id v -> Write (p, id, v)) priv id value);
        (6, map2 (fun n by -> Bump (n, by)) (oneofl [ -1; 0; 1; 2; 3; 5; 10; 31; 32; 40 ]) (int_range (-3) 1000));
        (1, return Reset_counters);
        (1, return Save);
        (1, return Restore);
      ])

let prop_csr_matches_model =
  QCheck.Test.make ~name:"CSR file matches the table model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_csr_op))
    (fun ops ->
      let t = Csr.create () and m = Csr_model.create () in
      let saved = ref (Csr.copy t) and saved_m = ref (Hashtbl.copy m) in
      let agree () =
        List.for_all
          (fun id ->
            Csr.raw_read t id = Csr_model.raw_read m id
            && List.for_all
                 (fun priv -> Csr.read t ~priv id = Csr_model.read m ~priv id)
                 [ Priv.User; Priv.Supervisor; Priv.Machine ])
          csr_ids
      in
      List.for_all
        (fun op ->
          (match op with
          | Raw_write (id, v) ->
            Csr.raw_write t id v;
            Csr_model.raw_write m id v
          | Write (priv, id, v) ->
            if Csr.write t ~priv id v <> Csr_model.write m ~priv id v then
              QCheck.Test.fail_report "write verdicts differ"
          | Bump (n, by) ->
            Csr.bump_counter t n ~by;
            Csr_model.bump_counter m n ~by
          | Reset_counters ->
            Csr.reset_counters t;
            Csr_model.reset_counters m
          | Save ->
            saved := Csr.copy t;
            saved_m := Hashtbl.copy m
          | Restore ->
            Csr.restore_into !saved ~into:t;
            Hashtbl.reset m;
            Hashtbl.iter (Hashtbl.replace m) !saved_m);
          agree ())
        ops)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_extract_of_mask;
      prop_align_down_le;
      prop_napot_contains_base;
      prop_memory_rw_roundtrip;
      prop_memory_matches_reference;
      prop_walk_matches_mapping;
      prop_pmp_matches_reference;
      prop_pmp_region_implies_words;
      prop_csr_matches_model;
    ]

let () =
  Alcotest.run "riscv"
    [
      ( "word",
        [
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "sign_extend" `Quick test_sign_extend;
          Alcotest.test_case "alignment" `Quick test_align;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "splitmix determinism" `Quick test_splitmix_deterministic;
        ] );
      ("priv", [ Alcotest.test_case "ordering and roundtrip" `Quick test_priv ]);
      ( "pmp",
        [
          Alcotest.test_case "napot roundtrip" `Quick test_pmp_napot_roundtrip;
          Alcotest.test_case "allow/deny" `Quick test_pmp_basic_allow_deny;
          Alcotest.test_case "priority" `Quick test_pmp_priority;
          Alcotest.test_case "machine mode and locking" `Quick test_pmp_machine_mode;
          Alcotest.test_case "no-match default" `Quick test_pmp_no_match_default;
          Alcotest.test_case "partial match fails" `Quick test_pmp_partial_match_fails;
          Alcotest.test_case "TOR regions" `Quick test_pmp_tor;
          Alcotest.test_case "execute permission" `Quick test_pmp_exec_permission;
          Alcotest.test_case "denied entry index" `Quick test_pmp_denied_entry_index;
          Alcotest.test_case "region checks" `Quick test_pmp_region;
          Alcotest.test_case "allows allocates nothing" `Quick
            test_pmp_allows_allocates_nothing;
        ] );
      ( "csr",
        [
          Alcotest.test_case "privilege checks" `Quick test_csr_rw_privilege;
          Alcotest.test_case "satp from supervisor" `Quick test_csr_satp_supervisor;
          Alcotest.test_case "counter views and gating" `Quick test_csr_counter_views;
          Alcotest.test_case "reset counters" `Quick test_csr_reset_counters;
          Alcotest.test_case "raw access is unchecked" `Quick test_csr_raw_unchecked;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "misaligned" `Quick test_memory_misaligned;
          Alcotest.test_case "lines" `Quick test_memory_lines;
        ] );
      ( "instr",
        [
          Alcotest.test_case "pretty printing" `Quick test_instr_pp;
          Alcotest.test_case "width bytes" `Quick test_width_bytes;
          Alcotest.test_case "to_string text" `Quick test_instr_to_string;
        ] );
      ( "program",
        [
          Alcotest.test_case "layout and fetch" `Quick test_program_layout;
          Alcotest.test_case "labels" `Quick test_program_labels;
          Alcotest.test_case "assembly errors" `Quick test_program_errors;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "pte roundtrip" `Quick test_pte_roundtrip;
          Alcotest.test_case "satp roundtrip" `Quick test_satp_roundtrip;
          Alcotest.test_case "vpn slicing" `Quick test_vpn_slicing;
          Alcotest.test_case "map and walk" `Quick test_map_and_walk;
          Alcotest.test_case "map range" `Quick test_map_range;
        ] );
      ("properties", properties);
    ]
