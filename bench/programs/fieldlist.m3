(* fieldlist — models the paper's second benchmark (§6.1): command parsing
   for a UNIX shell. Splits command lines into whitespace-separated
   fields, builds per-command field lists, and looks each command up in a
   table of known builtins. Like the original, it consists of short
   routines with frequent calls. *)
MODULE FieldList;

CONST
  Rounds = 15;  (* passes over the nine command lines *)

TYPE
  Str = REF ARRAY OF CHAR;
  Field = REF RECORD
    text: Str;
    next: Field;
  END;
  Command = REF RECORD
    name: Field;      (* first field *)
    args: Field;      (* rest *)
    argCount: INTEGER;
  END;
  NameEntry = REF RECORD
    name: Str;
    code: INTEGER;
    next: NameEntry;
  END;

VAR
  builtins: NameEntry;

PROCEDURE StrEqual(a, b: Str): BOOLEAN =
VAR i: INTEGER;
BEGIN
  IF NUMBER(a) # NUMBER(b) THEN RETURN FALSE; END;
  FOR i := 0 TO LAST(a) DO
    IF a[i] # b[i] THEN RETURN FALSE; END;
  END;
  RETURN TRUE;
END StrEqual;

PROCEDURE Substring(s: Str; from, len: INTEGER): Str =
VAR out: Str; i: INTEGER;
BEGIN
  out := NEW(Str, len);
  FOR i := 0 TO len - 1 DO
    out[i] := s[from + i];
  END;
  RETURN out;
END Substring;

PROCEDURE IsSpace(c: CHAR): BOOLEAN =
BEGIN
  RETURN (c = ' ') OR (c = '\t');
END IsSpace;

(* Splits a line into a field list (in order). *)
PROCEDURE Split(line: Str): Field =
VAR
  first, last, f: Field;
  i, start: INTEGER;
BEGIN
  first := NIL;
  last := NIL;
  i := 0;
  WHILE i < NUMBER(line) DO
    WHILE (i < NUMBER(line)) AND IsSpace(line[i]) DO INC(i); END;
    IF i < NUMBER(line) THEN
      start := i;
      WHILE (i < NUMBER(line)) AND (NOT IsSpace(line[i])) DO INC(i); END;
      f := NEW(Field);
      f.text := Substring(line, start, i - start);
      f.next := NIL;
      IF last = NIL THEN
        first := f;
      ELSE
        last.next := f;
      END;
      last := f;
    END;
  END;
  RETURN first;
END Split;

PROCEDURE CountFields(f: Field): INTEGER =
VAR n: INTEGER;
BEGIN
  n := 0;
  WHILE f # NIL DO INC(n); f := f.next; END;
  RETURN n;
END CountFields;

PROCEDURE Parse(line: Str): Command =
VAR c: Command; fields: Field;
BEGIN
  fields := Split(line);
  c := NEW(Command);
  IF fields = NIL THEN
    c.name := NIL;
    c.args := NIL;
    c.argCount := 0;
  ELSE
    c.name := fields;
    c.args := fields.next;
    c.argCount := CountFields(fields.next);
  END;
  RETURN c;
END Parse;

PROCEDURE AddBuiltin(name: Str; code: INTEGER) =
VAR e: NameEntry;
BEGIN
  e := NEW(NameEntry);
  e.name := name;
  e.code := code;
  e.next := builtins;
  builtins := e;
END AddBuiltin;

(* Returns the builtin code, or -1 for external commands. *)
PROCEDURE Lookup(name: Str): INTEGER =
VAR e: NameEntry;
BEGIN
  e := builtins;
  WHILE e # NIL DO
    IF StrEqual(e.name, name) THEN RETURN e.code; END;
    e := e.next;
  END;
  RETURN -1;
END Lookup;

PROCEDURE ProcessLine(line: Str; VAR totalArgs, builtinHits: INTEGER) =
VAR c: Command; code: INTEGER;
BEGIN
  c := Parse(line);
  IF c.name # NIL THEN
    totalArgs := totalArgs + c.argCount;
    code := Lookup(c.name.text);
    IF code >= 0 THEN INC(builtinHits); END;
  END;
END ProcessLine;

VAR
  totalArgs, builtinHits, round: INTEGER;
BEGIN
  builtins := NIL;
  AddBuiltin("cd", 1);
  AddBuiltin("echo", 2);
  AddBuiltin("set", 3);
  AddBuiltin("exit", 4);
  AddBuiltin("alias", 5);
  AddBuiltin("umask", 6);
  totalArgs := 0;
  builtinHits := 0;
  FOR round := 1 TO Rounds DO
    ProcessLine("ls -l /tmp", totalArgs, builtinHits);
    ProcessLine("echo hello world", totalArgs, builtinHits);
    ProcessLine("cd ..", totalArgs, builtinHits);
    ProcessLine("grep -n main ./src/shell.c", totalArgs, builtinHits);
    ProcessLine("set prompt = %", totalArgs, builtinHits);
    ProcessLine("   ", totalArgs, builtinHits);
    ProcessLine("alias ll ls -l", totalArgs, builtinHits);
    ProcessLine("cat a b c d e f g", totalArgs, builtinHits);
    ProcessLine("exit", totalArgs, builtinHits);
  END;
  PutInt(totalArgs);
  PutChar(' ');
  PutInt(builtinHits);
  PutLn();
END FieldList.
