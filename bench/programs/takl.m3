(* takl — the Gabriel benchmark: Takeuchi's function over lists instead of
   integers. A well-known call-heavy benchmark (paper §6.1); it allocates
   its three argument lists up front and then recurses furiously without
   allocating, so nearly every gc-point is a call with live pointer
   arguments. *)
MODULE Takl;

CONST
  Scale = 6;  (* Mas(3*Scale, 2*Scale, Scale); 6 is Gabriel's (18, 12, 6) *)

TYPE
  List = REF RECORD head: INTEGER; tail: List END;

PROCEDURE Listn(n: INTEGER): List =
VAR l: List; i: INTEGER;
BEGIN
  l := NIL;
  FOR i := 1 TO n DO
    WITH c = NEW(List) DO
      c.head := i;
      c.tail := l;
      l := c;
    END;
  END;
  RETURN l;
END Listn;

PROCEDURE Shorterp(x, y: List): BOOLEAN =
BEGIN
  WHILE y # NIL DO
    IF x = NIL THEN RETURN TRUE; END;
    x := x.tail;
    y := y.tail;
  END;
  RETURN FALSE;
END Shorterp;

PROCEDURE Mas(x, y, z: List): List =
BEGIN
  IF NOT Shorterp(y, x) THEN
    RETURN z;
  END;
  RETURN Mas(Mas(x.tail, y, z), Mas(y.tail, z, x), Mas(z.tail, x, y));
END Mas;

PROCEDURE Length(l: List): INTEGER =
VAR n: INTEGER;
BEGIN
  n := 0;
  WHILE l # NIL DO INC(n); l := l.tail; END;
  RETURN n;
END Length;

VAR result: List;
BEGIN
  result := Mas(Listn(3 * Scale), Listn(2 * Scale), Listn(Scale));
  PutInt(Length(result));
  PutLn();
END Takl.
