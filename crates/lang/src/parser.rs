//! Recursive-descent parser for the S-Net language.
//!
//! Grammar (combinator precedence, loosest first — parallel binds looser
//! than serial, postfix replication/placement binds tightest):
//!
//! ```text
//! program  := item* ("connect" netexpr ";"?)? | netexpr
//! item     := boxdecl | netdef
//! boxdecl  := "box" IDENT "(" "(" sig ")" "->" "(" sig ")" ("|" "(" sig ")")* ")" ";"
//! netdef   := "net" IDENT netsig? ("{" item* "}" "connect" netexpr)? ";"?
//! netexpr  := ser (("|" | "||") ser)*
//! ser      := post (".." post)*
//! post     := atom ( "*" pattern | "**" pattern | "!" TAG | "!@" TAG | "@" INT )*
//! atom     := IDENT | filter | sync | "(" netexpr ")"
//! filter   := "[" "]" | "[" pattern "->" template (";" template)* "]"
//! sync     := "[|" pattern ("," pattern)* "|]"
//! pattern  := "{" (element ("," element)*)? "}"
//! element  := IDENT            -- field label
//!           | TAG              -- tag label (`<t>`)
//!           | tagexpr          -- guard conjunct (e.g. `<tasks> == <cnt>`)
//! template := "{" (outitem ("," outitem)*)? "}"
//! outitem  := IDENT ("=" IDENT)? | TAG | "<" IDENT ("="|"+="|"-=") tagexpr ">"
//! ```

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use snet_core::{BinOp, SnetError, TagExpr, UnOp};

/// Parses a complete program.
pub fn parse(src: &str) -> Result<Program, SnetError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> SnetError {
        let t = &self.tokens[self.pos];
        SnetError::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), SnetError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, SnetError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.err_here(format!("expected identifier, found {other}"))),
        }
    }

    // ---------------- program & declarations ----------------

    fn program(&mut self) -> Result<Program, SnetError> {
        let mut items = Vec::new();
        let mut top = None;
        loop {
            match self.peek() {
                TokenKind::KwBox => items.push(Item::Box(self.box_decl()?)),
                TokenKind::KwNet => items.push(Item::Net(self.net_def()?)),
                TokenKind::KwConnect => {
                    self.bump();
                    top = Some(self.net_expr()?);
                    self.eat(TokenKind::Semi);
                    break;
                }
                TokenKind::Eof => break,
                _ => {
                    if items.is_empty() && top.is_none() {
                        // Bare-expression program, e.g. `a .. b`.
                        top = Some(self.net_expr()?);
                        break;
                    }
                    return Err(self.err_here(format!(
                        "expected declaration or `connect`, found {}",
                        self.peek()
                    )));
                }
            }
        }
        self.expect(TokenKind::Eof)?;
        Ok(Program { items, top })
    }

    fn sig_items(&mut self) -> Result<Vec<SigItem>, SnetError> {
        self.expect(TokenKind::LParen)?;
        let mut items = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                match self.peek().clone() {
                    TokenKind::Ident(n) => {
                        self.bump();
                        items.push(SigItem::Field(n));
                    }
                    TokenKind::TagRef(n) => {
                        self.bump();
                        items.push(SigItem::Tag(n));
                    }
                    other => {
                        return Err(self.err_here(format!("expected field or <tag>, found {other}")))
                    }
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(items)
    }

    fn sig_mapping(&mut self) -> Result<(Vec<SigItem>, Vec<Vec<SigItem>>), SnetError> {
        let input = self.sig_items()?;
        self.expect(TokenKind::Arrow)?;
        let mut outputs = vec![self.sig_items()?];
        while self.eat(TokenKind::Pipe) {
            outputs.push(self.sig_items()?);
        }
        Ok((input, outputs))
    }

    fn box_decl(&mut self) -> Result<BoxDecl, SnetError> {
        self.expect(TokenKind::KwBox)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let (input, outputs) = self.sig_mapping()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok(BoxDecl {
            name,
            input,
            outputs,
        })
    }

    fn net_def(&mut self) -> Result<NetDef, SnetError> {
        self.expect(TokenKind::KwNet)?;
        let name = self.ident()?;
        let mut sig = Vec::new();
        // A net signature starts with `( (` — distinguish from a body.
        if *self.peek() == TokenKind::LParen {
            self.bump();
            loop {
                let (input, outputs) = self.sig_mapping()?;
                sig.push(NetSigMap { input, outputs });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let mut items = Vec::new();
        let mut body = None;
        if self.eat(TokenKind::LBrace) {
            loop {
                match self.peek() {
                    TokenKind::KwBox => items.push(Item::Box(self.box_decl()?)),
                    TokenKind::KwNet => items.push(Item::Net(self.net_def()?)),
                    TokenKind::RBrace => {
                        self.bump();
                        break;
                    }
                    other => {
                        return Err(self.err_here(format!(
                            "expected declaration or `}}` in net body, found {other}"
                        )))
                    }
                }
            }
            self.expect(TokenKind::KwConnect)?;
            body = Some(self.net_expr()?);
        }
        self.eat(TokenKind::Semi);
        Ok(NetDef {
            name,
            sig,
            items,
            body,
        })
    }

    // ---------------- network expressions ----------------

    fn net_expr(&mut self) -> Result<NetExpr, SnetError> {
        let first = self.serial_expr()?;
        let mut branches = vec![first];
        let mut det = None;
        loop {
            let this_det = match self.peek() {
                TokenKind::Pipe => false,
                TokenKind::PipePipe => true,
                _ => break,
            };
            self.bump();
            match det {
                None => det = Some(this_det),
                Some(d) if d != this_det => {
                    return Err(self.err_here("cannot mix `|` and `||` without parentheses"))
                }
                _ => {}
            }
            branches.push(self.serial_expr()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().unwrap())
        } else {
            Ok(NetExpr::Parallel {
                branches,
                det: det.unwrap_or(false),
            })
        }
    }

    fn serial_expr(&mut self) -> Result<NetExpr, SnetError> {
        let mut left = self.postfix_expr()?;
        while self.eat(TokenKind::DotDot) {
            let right = self.postfix_expr()?;
            left = NetExpr::Serial(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn postfix_expr(&mut self) -> Result<NetExpr, SnetError> {
        let mut expr = self.atom()?;
        loop {
            match self.peek().clone() {
                TokenKind::Star | TokenKind::StarStar => {
                    let det = *self.peek() == TokenKind::StarStar;
                    self.bump();
                    let exit = self.pattern()?;
                    expr = NetExpr::Star {
                        body: Box::new(expr),
                        exit,
                        det,
                    };
                }
                TokenKind::Bang | TokenKind::BangAt => {
                    let placed = *self.peek() == TokenKind::BangAt;
                    self.bump();
                    let tag = match self.bump() {
                        TokenKind::TagRef(t) => t,
                        other => {
                            return Err(
                                self.err_here(format!("expected <tag> after `!`, found {other}"))
                            )
                        }
                    };
                    expr = NetExpr::Split {
                        body: Box::new(expr),
                        tag,
                        placed,
                    };
                }
                TokenKind::At => {
                    self.bump();
                    let node = match self.bump() {
                        TokenKind::Int(v) => v,
                        other => {
                            return Err(self.err_here(format!(
                                "expected node number after `@`, found {other}"
                            )))
                        }
                    };
                    expr = NetExpr::At {
                        body: Box::new(expr),
                        node,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn atom(&mut self) -> Result<NetExpr, SnetError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(NetExpr::Ref(name))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.net_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => self.filter(),
            TokenKind::LSync => self.sync(),
            other => Err(self.err_here(format!("expected a network atom, found {other}"))),
        }
    }

    fn filter(&mut self) -> Result<NetExpr, SnetError> {
        self.expect(TokenKind::LBracket)?;
        if self.eat(TokenKind::RBracket) {
            return Ok(NetExpr::Filter(FilterAst {
                pattern: PatternAst::default(),
                outputs: Vec::new(),
                identity: true,
            }));
        }
        let pattern = self.pattern()?;
        self.expect(TokenKind::Arrow)?;
        let mut outputs = vec![self.template()?];
        while self.eat(TokenKind::Semi) {
            outputs.push(self.template()?);
        }
        self.expect(TokenKind::RBracket)?;
        Ok(NetExpr::Filter(FilterAst {
            pattern,
            outputs,
            identity: false,
        }))
    }

    fn sync(&mut self) -> Result<NetExpr, SnetError> {
        self.expect(TokenKind::LSync)?;
        let mut patterns = vec![self.pattern()?];
        while self.eat(TokenKind::Comma) {
            patterns.push(self.pattern()?);
        }
        self.expect(TokenKind::RSync)?;
        Ok(NetExpr::Sync(patterns))
    }

    // ---------------- patterns & templates ----------------

    fn pattern(&mut self) -> Result<PatternAst, SnetError> {
        self.expect(TokenKind::LBrace)?;
        let mut pat = PatternAst::default();
        if self.eat(TokenKind::RBrace) {
            return Ok(pat);
        }
        loop {
            match (self.peek().clone(), self.peek2().clone()) {
                // Bare identifier followed by `,` or `}` → field label.
                (TokenKind::Ident(n), TokenKind::Comma | TokenKind::RBrace) => {
                    self.bump();
                    pat.fields.push(n);
                }
                // `<t>` followed by `,` or `}` → tag label.
                (TokenKind::TagRef(n), TokenKind::Comma | TokenKind::RBrace) => {
                    self.bump();
                    pat.tags.push(n);
                }
                // Anything else → guard expression over tags.
                _ => {
                    let e = self.tag_expr(false)?;
                    pat.guards.push(e);
                }
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(pat)
    }

    fn template(&mut self) -> Result<Vec<OutItemAst>, SnetError> {
        self.expect(TokenKind::LBrace)?;
        let mut items = Vec::new();
        if self.eat(TokenKind::RBrace) {
            return Ok(items);
        }
        loop {
            match self.peek().clone() {
                TokenKind::Ident(dst) => {
                    self.bump();
                    let src = if self.eat(TokenKind::Assign) {
                        self.ident()?
                    } else {
                        dst.clone()
                    };
                    // `{b = a}` names the *output* label first in S-Net.
                    items.push(OutItemAst::Field { dst, src });
                }
                TokenKind::TagRef(name) => {
                    self.bump();
                    items.push(OutItemAst::Tag {
                        dst: name.clone(),
                        expr: TagExpr::Tag(snet_core::Label::new(&name)),
                    });
                }
                TokenKind::Lt => {
                    self.bump();
                    let dst = self.ident()?;
                    let expr = match self.bump() {
                        TokenKind::Assign => self.tag_expr(true)?,
                        TokenKind::PlusEq => TagExpr::bin(
                            BinOp::Add,
                            TagExpr::Tag(snet_core::Label::new(&dst)),
                            self.tag_expr(true)?,
                        ),
                        TokenKind::MinusEq => TagExpr::bin(
                            BinOp::Sub,
                            TagExpr::Tag(snet_core::Label::new(&dst)),
                            self.tag_expr(true)?,
                        ),
                        other => {
                            return Err(self.err_here(format!(
                                "expected `=`, `+=` or `-=` in tag assignment, found {other}"
                            )))
                        }
                    };
                    self.expect(TokenKind::Gt)?;
                    items.push(OutItemAst::Tag { dst, expr });
                }
                other => {
                    return Err(self.err_here(format!("expected template item, found {other}")))
                }
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(items)
    }

    // ---------------- tag expressions ----------------
    //
    // Precedence climbing. `angle` is true while parsing inside a tag
    // assignment `<t = …>`, where a bare `>`/`>=` closes the assignment
    // instead of comparing (parenthesize comparisons there).

    fn tag_expr(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        let cond = self.tag_or(angle)?;
        if self.eat(TokenKind::Question) {
            let then = self.tag_expr(angle)?;
            self.expect(TokenKind::Colon)?;
            let els = self.tag_expr(angle)?;
            Ok(TagExpr::Cond(Box::new(cond), Box::new(then), Box::new(els)))
        } else {
            Ok(cond)
        }
    }

    fn tag_or(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        let mut left = self.tag_and(angle)?;
        while *self.peek() == TokenKind::PipePipe {
            self.bump();
            let right = self.tag_and(angle)?;
            left = TagExpr::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn tag_and(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        let mut left = self.tag_cmp(angle)?;
        while *self.peek() == TokenKind::Amp2 {
            self.bump();
            let right = self.tag_cmp(angle)?;
            left = TagExpr::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn tag_cmp(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        let left = self.tag_add(angle)?;
        let op = match self.peek() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt if !angle => BinOp::Gt,
            TokenKind::Ge if !angle => BinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.tag_add(angle)?;
        Ok(TagExpr::bin(op, left, right))
    }

    fn tag_add(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        let mut left = self.tag_mul(angle)?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.tag_mul(angle)?;
            left = TagExpr::bin(op, left, right);
        }
        Ok(left)
    }

    fn tag_mul(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        let mut left = self.tag_unary(angle)?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.tag_unary(angle)?;
            left = TagExpr::bin(op, left, right);
        }
        Ok(left)
    }

    fn tag_unary(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                Ok(TagExpr::Unary(UnOp::Neg, Box::new(self.tag_unary(angle)?)))
            }
            TokenKind::Bang => {
                self.bump();
                Ok(TagExpr::Unary(UnOp::Not, Box::new(self.tag_unary(angle)?)))
            }
            _ => self.tag_primary(angle),
        }
    }

    fn tag_primary(&mut self, angle: bool) -> Result<TagExpr, SnetError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(TagExpr::Const(v))
            }
            TokenKind::TagRef(n) => {
                self.bump();
                Ok(TagExpr::Tag(snet_core::Label::new(&n)))
            }
            TokenKind::Ident(n) => {
                self.bump();
                match n.as_str() {
                    // min(a, b) / max(a, b) / abs(a)
                    "min" | "max" if *self.peek() == TokenKind::LParen => {
                        self.bump();
                        let a = self.tag_expr(false)?;
                        self.expect(TokenKind::Comma)?;
                        let b = self.tag_expr(false)?;
                        self.expect(TokenKind::RParen)?;
                        let op = if n == "min" { BinOp::Min } else { BinOp::Max };
                        Ok(TagExpr::bin(op, a, b))
                    }
                    "abs" if *self.peek() == TokenKind::LParen => {
                        self.bump();
                        let a = self.tag_expr(false)?;
                        self.expect(TokenKind::RParen)?;
                        Ok(TagExpr::Unary(UnOp::Abs, Box::new(a)))
                    }
                    // Bare identifier in expression position reads a tag
                    // (used inside tag assignments: `<cnt = cnt + 1>`).
                    _ => Ok(TagExpr::Tag(snet_core::Label::new(&n))),
                }
            }
            TokenKind::LParen => {
                self.bump();
                // Parentheses reset the angle context: `(a > b)` works
                // inside `<t = …>`.
                let e = self.tag_expr(false)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => {
                let _ = angle;
                Err(self.err_here(format!("expected tag expression, found {other}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, expr_source, BoxRegistry};
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::{NetSpec, Record};

    fn top(src: &str) -> NetExpr {
        parse(src).unwrap().top.unwrap()
    }

    #[test]
    fn precedence_parallel_looser_than_serial() {
        // a .. b | c .. d  ≡  (a..b) | (c..d)
        match top("a .. b | c .. d") {
            NetExpr::Parallel { branches, det } => {
                assert!(!det);
                assert_eq!(branches.len(), 2);
                assert!(matches!(branches[0], NetExpr::Serial(..)));
                assert!(matches!(branches[1], NetExpr::Serial(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn postfix_binds_tightest() {
        // a .. b!<t>  ≡  a .. (b!<t>)
        match top("a .. b!<t>") {
            NetExpr::Serial(_, rhs) => assert!(matches!(*rhs, NetExpr::Split { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_fig2_connect_line() {
        let e = top("splitter .. solver!@<node> .. merger .. genImg");
        // ((splitter .. solver!@<node>) .. merger) .. genImg
        let r = |name: &str| Box::new(NetExpr::Ref(name.into()));
        let solvers = NetExpr::Split {
            body: r("solver"),
            tag: "node".into(),
            placed: true,
        };
        let fork = NetExpr::Serial(r("splitter"), Box::new(solvers));
        let join = NetExpr::Serial(Box::new(fork), r("merger"));
        assert_eq!(e, NetExpr::Serial(Box::new(join), r("genImg")));
    }

    #[test]
    fn paper_fig3_merger_net() {
        let src = r#"
            net merger {
                box init ( (chunk, <fst>) -> (pic));
                box merge ( (chunk, pic) -> (pic));
            } connect
                ( ( init .. [ {} -> {<cnt=1>} ] )
                | []
                )
                .. ( [| {pic}, {chunk} |]
                  .. ( ( merge
                      .. [ {<cnt>} -> {<cnt+=1>}]
                      )
                    | []
                    )
                  )*{<tasks> == <cnt>} ;
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.items.len(), 1);
        let Item::Net(net) = &prog.items[0] else {
            panic!("expected net")
        };
        assert_eq!(net.name, "merger");
        assert_eq!(net.items.len(), 2);
        let body = net.body.as_ref().unwrap();
        // Outermost is the serial of (init-path | []) with the starred part.
        let NetExpr::Serial(_, starred) = body else {
            panic!("expected serial: {body:?}")
        };
        let NetExpr::Star { exit, .. } = &**starred else {
            panic!("expected star: {starred:?}")
        };
        assert!(exit.fields.is_empty());
        assert_eq!(exit.guards.len(), 1);
    }

    #[test]
    fn paper_fig4_dynamic_solver() {
        let src = r#"
            connect
            ( ( ( solve .. [ {chunk, <node>}
                             -> {chunk}; {<node>} ]
                )!@<node>
              | []
              )
              .. ( [] | [| {sect}, {<node>} |] )
            ) * {chunk}
        "#;
        let e = parse(src).unwrap().top.unwrap();
        let NetExpr::Star { body, exit, .. } = e else {
            panic!("expected star")
        };
        assert_eq!(exit.fields, vec!["chunk".to_string()]);
        let NetExpr::Serial(first, second) = *body else {
            panic!("expected serial")
        };
        assert!(matches!(*first, NetExpr::Parallel { .. }));
        assert!(matches!(*second, NetExpr::Parallel { .. }));
    }

    #[test]
    fn box_declaration_with_variants() {
        let src = r#"
            box splitter( (scene, <nodes>, <tasks>)
                 -> (scene, sect, <node>, <tasks>, <fst>)
                  | (scene, sect, <node>, <tasks> ));
            connect splitter
        "#;
        let prog = parse(src).unwrap();
        let Item::Box(b) = &prog.items[0] else {
            panic!()
        };
        assert_eq!(b.name, "splitter");
        assert_eq!(b.input.len(), 3);
        assert_eq!(b.outputs.len(), 2);
        assert_eq!(b.outputs[0].len(), 5);
    }

    #[test]
    fn net_signature_declaration() {
        let src = r#"
            net merger ( (chunk, <fst>) -> (pic),
                         (chunk) -> (pic));
            connect merger
        "#;
        let prog = parse(src).unwrap();
        let Item::Net(n) = &prog.items[0] else {
            panic!()
        };
        assert_eq!(n.sig.len(), 2);
        assert!(n.body.is_none());
    }

    #[test]
    fn filters_and_sync_forms() {
        assert!(matches!(
            top("[]"),
            NetExpr::Filter(FilterAst { identity: true, .. })
        ));
        let f = top("[ {chunk, <node>} -> {chunk}; {<node>} ]");
        let NetExpr::Filter(f) = f else { panic!() };
        assert_eq!(f.outputs.len(), 2);
        let s = top("[| {sect}, {<node>} |]");
        let NetExpr::Sync(ps) = s else { panic!() };
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[1].tags, vec!["node".to_string()]);
    }

    #[test]
    fn tag_assignment_sugar() {
        let NetExpr::Filter(f) = top("[ {<cnt>} -> {<cnt+=1>} ]") else {
            panic!()
        };
        let OutItemAst::Tag { dst, expr } = &f.outputs[0][0] else {
            panic!()
        };
        assert_eq!(dst, "cnt");
        assert_eq!(expr.to_string(), "(<cnt> + 1)");
    }

    #[test]
    fn guard_with_arithmetic() {
        let NetExpr::Star { exit, .. } = top("a * {<i> % 2 == 0}") else {
            panic!()
        };
        assert_eq!(exit.guards.len(), 1);
        assert_eq!(exit.guards[0].to_string(), "((<i> % 2) == 0)");
    }

    #[test]
    fn deterministic_variants() {
        assert!(matches!(top("a || b"), NetExpr::Parallel { det: true, .. }));
        assert!(matches!(top("a ** {x}"), NetExpr::Star { det: true, .. }));
    }

    #[test]
    fn mixing_par_kinds_needs_parens() {
        assert!(parse("connect a | b || c").is_err());
        assert!(parse("connect (a | b) || c").is_ok());
    }

    #[test]
    fn static_placement() {
        let NetExpr::At { node, .. } = top("solver@3") else {
            panic!()
        };
        assert_eq!(node, 3);
    }

    #[test]
    fn error_positions() {
        let err = parse("connect a .. ..").unwrap_err();
        match err {
            SnetError::Parse { line, col, .. } => {
                assert_eq!(line, 1);
                assert!(col > 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn print_parse_round_trip_on_paper_nets() {
        // Each name is a stub subnet: a box of that name, which prints
        // as the name.
        let mut reg = BoxRegistry::new();
        let names = [
            "splitter", "solver", "merger", "genImg", "solve", "init", "merge",
        ];
        for name in names {
            let stub = BoxDef::from_fn(BoxSig::parse(name, &[], &[&[]]), |r: &Record| {
                Ok(BoxOutput::one(r.clone(), Work::ZERO))
            });
            reg.register_net(name, NetSpec::Box(stub));
        }
        for src in [
            "splitter .. solver!@<node> .. merger .. genImg",
            "(( solve .. [ {chunk, <node>} -> {chunk}; {<node>} ])!@<node> | []) .. ([] | [| {sect}, {<node>} |]) * {chunk}",
            "(( init .. [ {} -> {<cnt=1>} ]) | []) .. ([| {pic}, {chunk} |] .. ((merge .. [ {<cnt>} -> {<cnt+=1>} ]) | []))*{<tasks> == <cnt>}",
        ] {
            let printed = expr_source(&compile(src, &reg).unwrap());
            let reprinted = expr_source(&compile(&printed, &reg).unwrap());
            assert_eq!(printed, reprinted, "round trip failed for {src}");
        }
    }
}
