(* serve — the allocation-service handler of crates/bench/src/bin/serve.rs
   (request-sized array, cons-list churn, 1 request in 16 slow, 1 in 100
   escaping into a module global), extended to print one checksum per
   request so every reply can be checked.

   The handler depends on its request id only through
   (id + Offset) MOD Period, so the module body — which the serve
   executor never runs, it calls Handle directly — is the reference
   loop: run under the IR interpreter it prints the expected checksum of
   every residue, one per line. *)
MODULE Serve;

CONST
  Offset = 0;      (* added to every request id: the workload seed *)
  Period = 22800;  (* lcm(57, 16, 100) *)

TYPE
  Node = REF RECORD v: INTEGER; next: Node END;
  Arr = REF ARRAY OF INTEGER;
  Req = REF RECORD id: INTEGER END;

VAR
  last: Req;

PROCEDURE Chew(n: INTEGER): INTEGER =
VAR l: Node; i, s: INTEGER;
BEGIN
  l := NIL;
  FOR i := 1 TO n DO
    WITH c = NEW(Node) DO c.v := i; c.next := l; l := c; END;
    IF i MOD 8 = 0 THEN l := NIL; END;
  END;
  s := 0;
  WHILE l # NIL DO s := s + l.v; l := l.next; END;
  RETURN s;
END Chew;

PROCEDURE Handle(id: INTEGER) =
VAR a: Arr; i, k, s: INTEGER;
BEGIN
  k := (id + Offset) MOD Period;
  a := NEW(Arr, 8 + (k MOD 57));
  FOR i := 0 TO LAST(a) DO a[i] := k + i; END;
  s := Chew(40);
  IF k MOD 16 = 0 THEN
    FOR i := 1 TO 30 DO
      s := (s + Chew(60) + a[i MOD (LAST(a) + 1)]) MOD 1000003;
    END;
  END;
  IF k MOD 100 = 0 THEN
    WITH r = NEW(Req) DO r.id := k; last := r; END;
  END;
  PutInt((s + a[LAST(a)]) MOD 1000003);
  PutLn();
END Handle;

VAR k: INTEGER;
BEGIN
  last := NIL;
  FOR k := 0 TO Period - 1 DO
    Handle(k - Offset);
  END;
END Serve.
