(* typereg — models the paper's first benchmark (§6.1): type registration
   and type comparison using structural equivalence, as in the Modula-3
   runtime. A "real program rather than a synthetic benchmark": many short
   routines with frequent calls, so most calls are gc-points.

   Type descriptors are heap records; a registry keeps one canonical
   descriptor per structural equivalence class. The module builds a batch
   of synthetic types with deliberate duplicates and reports the number of
   canonical types and the duplicate hits. *)
MODULE TypeReg;

CONST
  KindInt = 0;
  KindBool = 1;
  KindChar = 2;
  KindRef = 3;
  KindRecord = 4;
  KindArray = 5;
  Types = 120;  (* synthetic types registered *)

TYPE
  Type = REF RECORD
    kind: INTEGER;
    target: Type;        (* KindRef: referent; KindArray: element *)
    lo, hi: INTEGER;     (* KindArray bounds *)
    fields: FieldList;   (* KindRecord *)
  END;
  FieldList = REF RECORD
    name: INTEGER;       (* field names are interned as integers *)
    fieldType: Type;
    next: FieldList;
  END;
  RegEntry = REF RECORD
    canon: Type;
    next: RegEntry;
  END;

VAR
  registry: RegEntry;
  canonCount, dupHits: INTEGER;

PROCEDURE MkPrim(kind: INTEGER): Type =
VAR t: Type;
BEGIN
  t := NEW(Type);
  t.kind := kind;
  RETURN t;
END MkPrim;

PROCEDURE MkRef(target: Type): Type =
VAR t: Type;
BEGIN
  t := NEW(Type);
  t.kind := KindRef;
  t.target := target;
  RETURN t;
END MkRef;

PROCEDURE MkArray(lo, hi: INTEGER; elem: Type): Type =
VAR t: Type;
BEGIN
  t := NEW(Type);
  t.kind := KindArray;
  t.lo := lo;
  t.hi := hi;
  t.target := elem;
  RETURN t;
END MkArray;

PROCEDURE MkField(name: INTEGER; ft: Type; rest: FieldList): FieldList =
VAR f: FieldList;
BEGIN
  f := NEW(FieldList);
  f.name := name;
  f.fieldType := ft;
  f.next := rest;
  RETURN f;
END MkField;

PROCEDURE MkRecord(fields: FieldList): Type =
VAR t: Type;
BEGIN
  t := NEW(Type);
  t.kind := KindRecord;
  t.fields := fields;
  RETURN t;
END MkRecord;

(* Structural equivalence; descriptors here are acyclic, so plain
   recursion suffices. *)
PROCEDURE FieldsEqual(a, b: FieldList): BOOLEAN =
BEGIN
  WHILE (a # NIL) AND (b # NIL) DO
    IF a.name # b.name THEN RETURN FALSE; END;
    IF NOT Equal(a.fieldType, b.fieldType) THEN RETURN FALSE; END;
    a := a.next;
    b := b.next;
  END;
  RETURN (a = NIL) AND (b = NIL);
END FieldsEqual;

PROCEDURE Equal(a, b: Type): BOOLEAN =
BEGIN
  IF a = b THEN RETURN TRUE; END;
  IF (a = NIL) OR (b = NIL) THEN RETURN FALSE; END;
  IF a.kind # b.kind THEN RETURN FALSE; END;
  IF a.kind = KindRef THEN RETURN Equal(a.target, b.target); END;
  IF a.kind = KindArray THEN
    RETURN (a.lo = b.lo) AND (a.hi = b.hi) AND Equal(a.target, b.target);
  END;
  IF a.kind = KindRecord THEN RETURN FieldsEqual(a.fields, b.fields); END;
  RETURN TRUE;  (* primitives of the same kind *)
END Equal;

(* Registers a type: returns the canonical representative. *)
PROCEDURE Register(t: Type): Type =
VAR e: RegEntry;
BEGIN
  e := registry;
  WHILE e # NIL DO
    IF Equal(e.canon, t) THEN
      INC(dupHits);
      RETURN e.canon;
    END;
    e := e.next;
  END;
  e := NEW(RegEntry);
  e.canon := t;
  e.next := registry;
  registry := e;
  INC(canonCount);
  RETURN t;
END Register;

(* Builds one synthetic type from a small seed; seeds that are congruent
   modulo 7 produce structurally identical types, giving duplicates. *)
PROCEDURE Synthesize(n: INTEGER): Type =
VAR shape, i: INTEGER; f: FieldList; elem: Type;
BEGIN
  shape := n MOD 7;
  IF shape = 0 THEN RETURN MkPrim(KindInt); END;
  IF shape = 1 THEN RETURN MkRef(MkPrim(KindInt)); END;
  IF shape = 2 THEN RETURN MkArray(1, 10, MkPrim(KindChar)); END;
  IF shape = 3 THEN
    f := MkField(1, MkPrim(KindInt), NIL);
    f := MkField(2, MkRef(MkPrim(KindBool)), f);
    RETURN MkRecord(f);
  END;
  IF shape = 4 THEN
    elem := MkRecord(MkField(3, MkPrim(KindInt), NIL));
    RETURN MkRef(MkArray(0, 4, MkRef(elem)));
  END;
  IF shape = 5 THEN
    f := NIL;
    FOR i := 1 TO 4 DO
      f := MkField(i, MkPrim(KindInt), f);
    END;
    RETURN MkRecord(f);
  END;
  (* shape = 6: nested refs *)
  RETURN MkRef(MkRef(MkRef(MkPrim(KindChar))));
END Synthesize;

VAR n: INTEGER; t, c: Type;
BEGIN
  registry := NIL;
  canonCount := 0;
  dupHits := 0;
  FOR n := 1 TO Types DO
    t := Synthesize(n);
    c := Register(t);
    ASSERT(Equal(c, t));
  END;
  PutInt(canonCount);
  PutChar(' ');
  PutInt(dupHits);
  PutLn();
END TypeReg.
