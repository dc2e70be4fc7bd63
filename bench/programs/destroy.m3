(* destroy — the paper's gc-stress benchmark (§6.1, §6.3): builds a
   complete tree of a given branching factor and depth, then repeatedly
   builds a new subtree of a fixed intermediate height and replaces a
   randomly chosen subtree of the same height with it. Heavily recursive;
   triggers collection frequently, which stresses the table-decoding code
   at gc time. *)
MODULE Destroy;

CONST
  Branch = 3;       (* branching factor *)
  Depth = 6;        (* total tree depth *)
  SubHeight = 3;    (* height of replaced subtrees *)
  Iterations = 60;  (* replacement rounds *)
  Start = 74755;    (* first value of the random sequence *)

TYPE
  Node = REF RECORD
    value: INTEGER;
    kids: Kids;
  END;
  Kids = REF ARRAY OF Node;

VAR
  root: Node;
  seed: INTEGER;
  built: INTEGER;

(* A small linear congruential generator, entirely in-language. *)
PROCEDURE NextRandom(bound: INTEGER): INTEGER =
BEGIN
  seed := (seed * 1103515245 + 12345) MOD 2147483648;
  IF seed < 0 THEN seed := -seed; END;
  RETURN seed MOD bound;
END NextRandom;

PROCEDURE Build(height: INTEGER): Node =
VAR n: Node; i: INTEGER;
BEGIN
  n := NEW(Node);
  INC(built);
  n.value := height;
  IF height > 0 THEN
    n.kids := NEW(Kids, Branch);
    FOR i := 0 TO Branch - 1 DO
      n.kids[i] := Build(height - 1);
    END;
  ELSE
    n.kids := NIL;
  END;
  RETURN n;
END Build;

(* Walks down to a random node at height `target` and returns its parent
   (so the child can be replaced). *)
PROCEDURE RandomParentAt(n: Node; height, target: INTEGER): Node =
VAR k: INTEGER;
BEGIN
  IF height = target + 1 THEN
    RETURN n;
  END;
  k := NextRandom(Branch);
  RETURN RandomParentAt(n.kids[k], height - 1, target);
END RandomParentAt;

PROCEDURE Replace() =
VAR parent: Node; slot: INTEGER;
BEGIN
  parent := RandomParentAt(root, Depth, SubHeight);
  slot := NextRandom(Branch);
  parent.kids[slot] := Build(SubHeight);
END Replace;

PROCEDURE CountNodes(n: Node): INTEGER =
VAR total, i: INTEGER;
BEGIN
  IF n = NIL THEN RETURN 0; END;
  total := 1;
  IF n.kids # NIL THEN
    FOR i := 0 TO Branch - 1 DO
      total := total + CountNodes(n.kids[i]);
    END;
  END;
  RETURN total;
END CountNodes;

VAR i: INTEGER;
BEGIN
  seed := Start;
  built := 0;
  root := Build(Depth);
  FOR i := 1 TO Iterations DO
    Replace();
  END;
  PutInt(CountNodes(root));
  PutChar(' ');
  PutInt(built);
  PutLn();
END Destroy.
