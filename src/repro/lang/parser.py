"""MiniC recursive-descent parser.

Grammar (informally)::

    unit      := (structdecl | global | funcdef)*
    structdecl:= 'struct' ident '{' (type ident ';')* '}' ';'
    type      := ('int' | 'float' | 'void' | 'struct' ident) '*'*
    global    := type ident ('[' int ']')? ('=' init)? ';'
    funcdef   := type ident '(' params? ')' block
    block     := '{' stmt* '}'
    stmt      := decl | assign ';' | exprstmt ';' | if | while | for
               | switch | 'break' ';' | 'continue' ';' | 'return' expr? ';'
               | 'delete' expr ';' | block
    assign    := lvalue '=' expr
    expr      := ternary with C precedence; unary - ! ~ * & ; calls;
                 indexing; member access '.' / '->'; 'new' ident;
                 'sizeof' '(' type | ident ')'

Struct types always use the ``struct`` keyword (C style, no typedefs),
which keeps declarations unambiguous.  Type names are plain strings:
``"int"``, ``"float"``, a struct name like ``"Node"``, and pointers
append ``"*"`` (``"Node*"``).  Assignment is a statement (not an
expression), which keeps data flow in generated code easy to follow in
slices.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang import ast
from repro.lang.errors import CompileError
from repro.lang.lexer import Token, tokenize

_TYPE_NAMES = ("int", "float", "void")

# Binary operator precedence: higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if not self.check(kind, text):
            wanted = text or kind
            raise CompileError(
                "expected %r, found %r" % (wanted, token.text or token.kind),
                token.line, token.col)
        return self.advance()

    # -- types ---------------------------------------------------------------

    def _parse_type(self) -> Tuple[str, Token]:
        """A type: ``int`` / ``float`` / ``void`` / ``struct Name``, each
        optionally followed by ``*``s.  Returns (type string, first token).
        """
        token = self.expect("kw")
        if token.text == "struct":
            name_token = self.expect("ident")
            type_name = name_token.text
        elif token.text in _TYPE_NAMES:
            type_name = token.text
        else:
            raise CompileError("expected a type, found %r" % token.text,
                               token.line, token.col)
        while self.accept("op", "*"):
            type_name += "*"
        return type_name, token

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self.check("eof"):
            if (self.check("kw", "struct")
                    and self.peek(1).kind == "ident"
                    and self.peek(2).kind == "op"
                    and self.peek(2).text == "{"):
                unit.structs.append(self._parse_struct_decl())
                continue
            type_name, type_token = self._parse_type()
            name_token = self.expect("ident")
            if self.check("op", "("):
                unit.functions.append(
                    self._parse_funcdef(type_name, type_token, name_token))
            else:
                unit.globals.append(
                    self._parse_global(type_name, type_token, name_token))
        return unit

    def _parse_struct_decl(self) -> ast.StructDecl:
        struct_token = self.advance()             # 'struct'
        name_token = self.expect("ident")
        decl = ast.StructDecl(name=name_token.text, line=struct_token.line)
        self.expect("op", "{")
        while not self.check("op", "}"):
            ftype, ftoken = self._parse_type()
            if ftype == "void":
                raise CompileError("struct field cannot have type void",
                                   ftoken.line, ftoken.col)
            fname = self.expect("ident")
            if self.check("op", "["):
                raise CompileError(
                    "array fields are not supported in structs",
                    fname.line, fname.col)
            self.expect("op", ";")
            if any(existing == fname.text for _, existing in decl.fields):
                raise CompileError(
                    "duplicate field %r in struct %s"
                    % (fname.text, decl.name), fname.line, fname.col)
            decl.fields.append((ftype, fname.text))
        self.expect("op", "}")
        self.expect("op", ";")
        return decl

    def _parse_global(self, type_name: str, type_token: Token,
                      name_token: Token) -> ast.GlobalDecl:
        decl = ast.GlobalDecl(type_name=type_name, name=name_token.text,
                              line=type_token.line)
        if self.accept("op", "["):
            size_token = self.expect("int")
            decl.array_size = int(size_token.value)
            self.expect("op", "]")
        if self.accept("op", "="):
            decl.init = self._parse_global_init()
        self.expect("op", ";")
        return decl

    def _parse_global_init(self) -> List:
        if self.accept("op", "{"):
            values = []
            while not self.check("op", "}"):
                values.append(self._parse_number_literal())
                if not self.accept("op", ","):
                    break
            self.expect("op", "}")
            return values
        return [self._parse_number_literal()]

    def _parse_number_literal(self):
        negative = bool(self.accept("op", "-"))
        token = self.peek()
        if token.kind not in ("int", "float"):
            raise CompileError("expected numeric literal", token.line, token.col)
        self.advance()
        value = token.value
        return -value if negative else value

    def _parse_funcdef(self, type_name: str, type_token: Token,
                       name_token: Token) -> ast.FuncDef:
        func = ast.FuncDef(name=name_token.text, return_type=type_name,
                           line=type_token.line)
        self.expect("op", "(")
        if not self.check("op", ")"):
            while True:
                ptype, ptoken = self._parse_type()
                if ptype == "void":
                    raise CompileError("bad parameter type %r" % ptype,
                                       ptoken.line, ptoken.col)
                pname = self.expect("ident")
                func.params.append((ptype, pname.text))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        func.body = self.parse_block()
        return func

    # -- statements --------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_token = self.expect("op", "{")
        block = ast.Block(line=open_token.line)
        while not self.check("op", "}"):
            block.body.append(self.parse_stmt())
        self.expect("op", "}")
        return block

    def parse_stmt(self) -> ast.Stmt:
        token = self.peek()
        if token.kind == "op" and token.text == "{":
            return self.parse_block()
        if token.kind == "kw":
            if token.text in ("int", "float", "struct"):
                return self._parse_local_decl()
            if token.text == "delete":
                self.advance()
                target = self.parse_expr()
                self.expect("op", ";")
                return ast.Delete(line=token.line, target=target,
                                  col=token.col)
            if token.text == "if":
                return self._parse_if()
            if token.text == "while":
                return self._parse_while()
            if token.text == "do":
                return self._parse_do_while()
            if token.text == "for":
                return self._parse_for()
            if token.text == "switch":
                return self._parse_switch()
            if token.text == "break":
                self.advance()
                self.expect("op", ";")
                return ast.Break(line=token.line)
            if token.text == "continue":
                self.advance()
                self.expect("op", ";")
                return ast.Continue(line=token.line)
            if token.text == "return":
                self.advance()
                value = None
                if not self.check("op", ";"):
                    value = self.parse_expr()
                self.expect("op", ";")
                return ast.Return(line=token.line, value=value)
            raise CompileError("unexpected keyword %r" % token.text,
                               token.line, token.col)
        stmt = self._parse_assign_or_expr()
        self.expect("op", ";")
        return stmt

    def _parse_local_decl(self) -> ast.LocalDecl:
        type_name, type_token = self._parse_type()
        if type_name == "void":
            raise CompileError("local cannot have type void",
                               type_token.line, type_token.col)
        name_token = self.expect("ident")
        decl = ast.LocalDecl(type_name=type_name, name=name_token.text,
                             line=type_token.line)
        if self.accept("op", "["):
            size_token = self.expect("int")
            decl.array_size = int(size_token.value)
            self.expect("op", "]")
        if self.accept("op", "="):
            decl.init = self.parse_expr()
        self.expect("op", ";")
        return decl

    _COMPOUND_OPS = {
        "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
        "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
    }

    def _parse_assign_or_expr(self) -> ast.Stmt:
        """An assignment (plain, compound, ``++``/``--``) or a bare
        expression (no trailing ``;`` consumed)."""
        token = self.peek()
        expr = self.parse_expr()
        if self.accept("op", "="):
            value = self.parse_expr()
            return ast.Assign(line=token.line, target=expr, value=value)
        for text, op in self._COMPOUND_OPS.items():
            if self.accept("op", text):
                value = self.parse_expr()
                return ast.Assign(line=token.line, target=expr,
                                  value=value, op=op)
        if self.accept("op", "++"):
            return ast.Assign(line=token.line, target=expr,
                              value=ast.NumberLit(line=token.line, value=1),
                              op="+")
        if self.accept("op", "--"):
            return ast.Assign(line=token.line, target=expr,
                              value=ast.NumberLit(line=token.line, value=1),
                              op="-")
        return ast.ExprStmt(line=token.line, expr=expr)

    def _parse_if(self) -> ast.If:
        token = self.advance()
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self.parse_stmt()
        otherwise = None
        if self.accept("kw", "else"):
            otherwise = self.parse_stmt()
        return ast.If(line=token.line, cond=cond, then=then,
                      otherwise=otherwise)

    def _parse_while(self) -> ast.While:
        token = self.advance()
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        body = self.parse_stmt()
        return ast.While(line=token.line, cond=cond, body=body)

    def _parse_do_while(self) -> ast.DoWhile:
        token = self.advance()
        body = self.parse_stmt()
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.DoWhile(line=token.line, body=body, cond=cond)

    def _parse_for(self) -> ast.For:
        token = self.advance()
        self.expect("op", "(")
        init = None
        if not self.check("op", ";"):
            init = self._parse_assign_or_expr()
        self.expect("op", ";")
        cond = None
        if not self.check("op", ";"):
            cond = self.parse_expr()
        self.expect("op", ";")
        step = None
        if not self.check("op", ")"):
            step = self._parse_assign_or_expr()
        self.expect("op", ")")
        body = self.parse_stmt()
        return ast.For(line=token.line, init=init, cond=cond, step=step,
                       body=body)

    def _parse_switch(self) -> ast.Switch:
        token = self.advance()
        self.expect("op", "(")
        scrutinee = self.parse_expr()
        self.expect("op", ")")
        self.expect("op", "{")
        switch = ast.Switch(line=token.line, scrutinee=scrutinee)
        current: Optional[ast.SwitchCase] = None
        while not self.check("op", "}"):
            if self.check("kw", "case"):
                case_token = self.advance()
                value = self._parse_number_literal()
                if not isinstance(value, int):
                    raise CompileError("case labels must be integers",
                                       case_token.line, case_token.col)
                self.expect("op", ":")
                current = ast.SwitchCase(value=value, line=case_token.line)
                switch.cases.append(current)
            elif self.check("kw", "default"):
                default_token = self.advance()
                self.expect("op", ":")
                current = ast.SwitchCase(value=None, line=default_token.line)
                switch.cases.append(current)
            else:
                if current is None:
                    bad = self.peek()
                    raise CompileError("statement before first case label",
                                       bad.line, bad.col)
                current.body.append(self.parse_stmt())
        self.expect("op", "}")
        return switch

    # -- expressions ------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self.accept("op", "?"):
            then = self.parse_expr()
            self.expect("op", ":")
            otherwise = self._parse_ternary()
            return ast.Conditional(line=cond.line, cond=cond, then=then,
                                   otherwise=otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return left
            prec = _PRECEDENCE.get(token.text)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self._parse_binary(prec + 1)
            left = ast.Binary(line=left.line, op=token.text, left=left,
                              right=right)

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op" and token.text in ("-", "!", "~", "*", "&"):
            self.advance()
            operand = self._parse_unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self.check("op", "["):
                self.advance()
                index = self.parse_expr()
                self.expect("op", "]")
                expr = ast.Index(line=expr.line, base=expr, index=index)
            elif self.check("op", ".") or self.check("op", "->"):
                arrow = self.advance().text == "->"
                field_token = self.expect("ident")
                expr = ast.Member(line=field_token.line, base=expr,
                                  name=field_token.text, arrow=arrow,
                                  col=field_token.col)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "kw" and token.text == "new":
            self.advance()
            name_token = self.expect("ident")
            return ast.New(line=token.line, type_name=name_token.text,
                           col=name_token.col)
        if token.kind == "kw" and token.text == "sizeof":
            self.advance()
            self.expect("op", "(")
            if self.check("ident"):
                # Bare struct name, matching `new Name` (no keyword).
                type_token = self.advance()
                type_name = type_token.text
                while self.accept("op", "*"):
                    type_name += "*"
            else:
                type_name, type_token = self._parse_type()
            self.expect("op", ")")
            return ast.SizeOf(line=token.line, type_name=type_name,
                              col=type_token.col)
        if token.kind in ("int", "float"):
            self.advance()
            return ast.NumberLit(line=token.line, value=token.value)
        if token.kind == "ident":
            self.advance()
            if self.accept("op", "("):
                call = ast.Call(line=token.line, name=token.text)
                if not self.check("op", ")"):
                    while True:
                        call.args.append(self.parse_expr())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return call
            return ast.VarRef(line=token.line, name=token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect("op", ")")
            return expr
        raise CompileError("unexpected token %r" % (token.text or token.kind),
                           token.line, token.col)


def parse(source: str) -> ast.TranslationUnit:
    """Parse MiniC source into a :class:`~repro.lang.ast.TranslationUnit`."""
    return _Parser(tokenize(source)).parse_unit()
