MODULE JitMut;
TYPE
  Node = REF RECORD
    val: INTEGER;
    next: Node;
  END;

PROCEDURE Cons(v: INTEGER; t: Node): Node =
VAR p: Node;
BEGIN
  p := NEW(Node);
  p.val := v;
  p.next := t;
  RETURN p;
END Cons;

PROCEDURE Weave(n: INTEGER; acc: Node): Node =
VAR p, q: Node;
BEGIN
  IF n = 0 THEN RETURN acc; END;
  p := Weave(n - 1, acc);
  q := Cons(n, NIL);
  q.next := p;
  p := Cons(n + 100, NIL);
  p.next := q;
  q := Cons(n + 200, NIL);
  q.next := p;
  p := Cons(acc.val, NIL);
  p.next := q;
  RETURN p;
END Weave;

PROCEDURE Run(seed: Node; n: INTEGER): INTEGER =
VAR l: Node; s: INTEGER;
BEGIN
  l := Weave(n, seed);
  s := seed.val;
  WHILE l # NIL DO
    s := s + l.val;
    l := l.next;
  END;
  RETURN s;
END Run;

BEGIN
  WITH seed = NEW(Node) DO
    seed.val := 7;
    PutInt(Run(seed, 4));
    PutLn();
    PutInt(seed.val);
    PutLn();
  END;
END JitMut.
