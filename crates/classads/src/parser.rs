//! Recursive-descent parser for ClassAd expressions and whole ads.

use crate::ast::{AttrScope, BinOp, Expr, UnOp};
use crate::lexer::{lex, LexError, Token};
use crate::value::Value;
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenisation failed.
    Lex(LexError),
    /// Unexpected token (or end of input) with a description of what was
    /// expected.
    Unexpected {
        /// What was found, rendered; `None` at end of input.
        found: Option<String>,
        /// What the parser wanted.
        expected: String,
    },
    /// Input had trailing tokens after a complete expression.
    TrailingInput(String),
    /// The expression nests deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected '{t}', expected {expected}"),
                None => write!(f, "unexpected end of input, expected {expected}"),
            },
            ParseError::TrailingInput(t) => write!(f, "trailing input starting at '{t}'"),
            ParseError::TooDeep => write!(f, "expression nests deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// How deep an expression tree may grow: one level per parenthesis, unary
/// operator and call, and one per operator of a chain (`a + b + c` leans
/// left, two deep). The parser, the evaluator, `Display` and `Drop` all
/// recurse once per level, and a job's `Requirements` is outside input, so
/// an expression past this is a [`ParseError`], not a stack overflow.
/// (`Display` parenthesises every operator, which can double the count:
/// what parsed within half the limit always reparses from its printed
/// form. The deepest expression in this workspace's ads is under twenty.)
pub const MAX_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of the tree above the token at `pos`.
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Whatever is parsed next sits one level further down.
    fn deeper(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::TooDeep);
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            other => Err(ParseError::Unexpected {
                found: other.map(|t| t.to_string()),
                expected: what.to_string(),
            }),
        }
    }

    fn binop_at(&self, min_prec: u8) -> Option<BinOp> {
        let op = match self.peek()? {
            Token::OrOr => BinOp::Or,
            Token::AndAnd => BinOp::And,
            Token::EqEq => BinOp::Eq,
            Token::NotEq => BinOp::Ne,
            Token::MetaEq => BinOp::MetaEq,
            Token::MetaNe => BinOp::MetaNe,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            Token::Percent => BinOp::Mod,
            _ => return None,
        };
        (op.precedence() >= min_prec).then_some(op)
    }

    /// Precedence-climbing expression parser.
    fn expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let entered = self.depth;
        let mut lhs = self.unary()?;
        while let Some(op) = self.binop_at(min_prec) {
            self.pos += 1; // consume operator
            self.deeper()?; // it goes on top of everything to its left
            let rhs = self.expr(op.precedence() + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = entered;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Token::Bang) => Some(UnOp::Not),
            Some(Token::Minus) => Some(UnOp::Neg),
            Some(Token::Plus) => None,
            _ => return self.primary(),
        };
        self.pos += 1;
        self.deeper()?;
        let operand = self.unary()?;
        self.depth -= 1;
        Ok(match op {
            Some(op) => Expr::Unary(op, Box::new(operand)),
            None => operand,
        })
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Token::Real(r)) => Ok(Expr::Lit(Value::Real(r))),
            Some(Token::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            Some(Token::LParen) => {
                self.deeper()?;
                let e = self.expr(1)?;
                self.depth -= 1;
                self.expect(&Token::RParen, "')'")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => self.ident_tail(name),
            other => Err(ParseError::Unexpected {
                found: other.map(|t| t.to_string()),
                expected: "a literal, attribute, or '('".into(),
            }),
        }
    }

    /// After an identifier: keyword literal, scoped attribute, function
    /// call, or bare attribute.
    fn ident_tail(&mut self, name: String) -> Result<Expr, ParseError> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "true" => return Ok(Expr::Lit(Value::Bool(true))),
            "false" => return Ok(Expr::Lit(Value::Bool(false))),
            "undefined" => return Ok(Expr::Lit(Value::Undefined)),
            "error" => return Ok(Expr::Lit(Value::Error)),
            _ => {}
        }
        // Scoped reference: MY.x / TARGET.x
        if (lower == "my" || lower == "target") && self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            match self.next() {
                Some(Token::Ident(attr)) => {
                    let scope = if lower == "my" {
                        AttrScope::My
                    } else {
                        AttrScope::Target
                    };
                    return Ok(Expr::Attr {
                        scope,
                        name: attr.to_ascii_lowercase(),
                        display: attr,
                    });
                }
                other => {
                    return Err(ParseError::Unexpected {
                        found: other.map(|t| t.to_string()),
                        expected: "attribute name after scope qualifier".into(),
                    })
                }
            }
        }
        // Function call.
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            self.deeper()?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.expr(1)?);
                    match self.peek() {
                        Some(Token::Comma) => {
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
            }
            self.depth -= 1;
            self.expect(&Token::RParen, "')' after arguments")?;
            return Ok(Expr::Call { name: lower, args });
        }
        Ok(Expr::Attr {
            scope: AttrScope::Either,
            name: lower,
            display: name,
        })
    }

    /// Parse the `name = expr; name = expr; …` body of an ad. Assumes the
    /// opening `[` was already consumed; consumes the closing `]`.
    fn ad_body(&mut self) -> Result<Vec<(String, Expr)>, ParseError> {
        let mut pairs = Vec::new();
        loop {
            match self.peek() {
                Some(Token::RBracket) => {
                    self.pos += 1;
                    return Ok(pairs);
                }
                Some(Token::Ident(_)) => {
                    let Some(Token::Ident(name)) = self.next() else {
                        unreachable!()
                    };
                    self.expect(&Token::Assign, "'=' after attribute name")?;
                    let e = self.expr(1)?;
                    pairs.push((name, e));
                    // Optional semicolon separator.
                    if self.peek() == Some(&Token::Semi) {
                        self.pos += 1;
                    }
                }
                other => {
                    return Err(ParseError::Unexpected {
                        found: other.map(|t| t.to_string()),
                        expected: "attribute assignment or ']'".into(),
                    })
                }
            }
        }
    }
}

/// Parse a single expression, requiring all input to be consumed.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(input)?;
    let e = p.expr(1)?;
    match p.peek() {
        None => Ok(e),
        Some(t) => Err(ParseError::TrailingInput(t.to_string())),
    }
}

/// Parse a whole ad of the form `[ a = 1; b = expr; … ]`, returning the
/// attribute list in source order (names keep their original spelling).
pub fn parse_ad_pairs(input: &str) -> Result<Vec<(String, Expr)>, ParseError> {
    let mut p = Parser::new(input)?;
    p.expect(&Token::LBracket, "'[' to open an ad")?;
    let pairs = p.ad_body()?;
    match p.peek() {
        None => Ok(pairs),
        Some(t) => Err(ParseError::TrailingInput(t.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        parse_expr(s).unwrap().to_string()
    }

    #[test]
    fn precedence_groups_correctly() {
        assert_eq!(roundtrip("1 + 2 * 3"), "(1 + (2 * 3))");
        assert_eq!(roundtrip("(1 + 2) * 3"), "((1 + 2) * 3)");
        assert_eq!(roundtrip("a && b || c && d"), "((a && b) || (c && d))");
        assert_eq!(roundtrip("a == b + 1"), "(a == (b + 1))");
        assert_eq!(roundtrip("1 < 2 == true"), "((1 < 2) == true)");
    }

    #[test]
    fn left_associativity() {
        assert_eq!(roundtrip("10 - 2 - 3"), "((10 - 2) - 3)");
        assert_eq!(roundtrip("8 / 4 / 2"), "((8 / 4) / 2)");
    }

    #[test]
    fn unary_operators() {
        assert_eq!(roundtrip("!a"), "!(a)");
        assert_eq!(roundtrip("-3 + 4"), "(-(3) + 4)");
        assert_eq!(roundtrip("!!true"), "!(!(true))");
        assert_eq!(roundtrip("+5"), "5");
    }

    #[test]
    fn keywords_are_literals() {
        assert_eq!(parse_expr("TRUE").unwrap(), Expr::boolean(true));
        assert_eq!(
            parse_expr("Undefined").unwrap(),
            Expr::Lit(Value::Undefined)
        );
        assert_eq!(parse_expr("ERROR").unwrap(), Expr::Lit(Value::Error));
    }

    #[test]
    fn scoped_attrs() {
        assert_eq!(parse_expr("MY.Rank").unwrap(), Expr::my("Rank"));
        assert_eq!(parse_expr("target.Memory").unwrap(), Expr::target("Memory"));
        assert_eq!(parse_expr("OpSys").unwrap(), Expr::attr("OpSys"));
    }

    #[test]
    fn meta_operators_parse() {
        assert_eq!(roundtrip("HasJava =?= true"), "(HasJava =?= true)");
        assert_eq!(roundtrip("x =!= undefined"), "(x =!= undefined)");
    }

    #[test]
    fn function_calls() {
        let e = parse_expr("isUndefined(Memory)").unwrap();
        assert_eq!(
            e,
            Expr::Call {
                name: "isundefined".into(),
                args: vec![Expr::attr("Memory")],
            }
        );
        let e = parse_expr("min(1, 2, 3)").unwrap();
        if let Expr::Call { args, .. } = e {
            assert_eq!(args.len(), 3);
        } else {
            panic!("not a call");
        }
        assert!(parse_expr("f()").is_ok());
    }

    #[test]
    fn whole_ad_parses() {
        let pairs = parse_ad_pairs(
            "[ Memory = 128; Arch = \"INTEL\"; Requirements = TARGET.Owner == \"thain\" ]",
        )
        .unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, "Memory");
        assert_eq!(pairs[2].0, "Requirements");
    }

    #[test]
    fn ad_trailing_semicolon_ok() {
        assert!(parse_ad_pairs("[ a = 1; ]").is_ok());
        assert!(parse_ad_pairs("[]").unwrap().is_empty());
        assert!(parse_ad_pairs("[ a = 1 ]").is_ok());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("(1").is_err());
        assert!(parse_expr("1 2").is_err());
        assert!(parse_expr("").is_err());
        assert!(parse_ad_pairs("[ a 1 ]").is_err());
        assert!(parse_ad_pairs("( a = 1 )").is_err());
        assert!(parse_expr("MY.").is_err());
    }

    #[test]
    fn complex_realistic_requirements() {
        let e = parse_expr(
            "TARGET.Memory >= MY.ImageSize && TARGET.OpSys == \"LINUX\" \
             && (TARGET.HasJava =?= true || MY.Universe != \"java\")",
        )
        .unwrap();
        let s = e.to_string();
        assert!(s.contains("=?="));
        assert!(s.contains("MY.ImageSize"));
    }

    /// `levels` of nesting around a literal, by parentheses, by unary
    /// operators, by calls, and by one left-leaning operator chain.
    fn nested(levels: usize) -> [String; 4] {
        [
            format!("{}1{}", "(".repeat(levels), ")".repeat(levels)),
            format!("{}true", "!".repeat(levels)),
            format!("{}1{}", "min(".repeat(levels), ")".repeat(levels)),
            format!("1{}", " + 1".repeat(levels)),
        ]
    }

    #[test]
    fn nesting_up_to_the_limit_parses_evaluates_prints_and_drops() {
        for src in nested(MAX_DEPTH) {
            let e = parse_expr(&src).unwrap_or_else(|err| panic!("{err}: {src}"));
            let _ = crate::eval(&crate::ClassAd::new(), None, &e);
            let _ = e.to_string();
        }
        let ad = format!(
            "[ a = {}; b = {} ]",
            nested(MAX_DEPTH)[0],
            nested(MAX_DEPTH)[3]
        );
        assert_eq!(parse_ad_pairs(&ad).unwrap().len(), 2);
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        for levels in [MAX_DEPTH + 1, 100_000] {
            for src in nested(levels) {
                assert_eq!(
                    parse_expr(&src),
                    Err(ParseError::TooDeep),
                    "{levels} levels"
                );
                assert_eq!(
                    parse_ad_pairs(&format!("[ a = {src} ]")),
                    Err(ParseError::TooDeep)
                );
            }
        }
        assert!(ParseError::TooDeep.to_string().contains("256"));
    }
}
