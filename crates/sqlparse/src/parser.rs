//! Recursive-descent SQL parser.
//!
//! Operator precedence (loosest to tightest): `OR`, `AND`, `NOT`,
//! comparison / `IN` / `LIKE` / `BETWEEN` / `IS NULL` / quantified
//! comparison, additive (`+ -`), multiplicative (`* /`), unary, primary.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{tokenize, Keyword, SpannedToken, Token};

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser::new(tokens);
    let stmt = parser.parse_statement()?;
    parser.skip_semicolons();
    parser.expect_end()?;
    Ok(stmt)
}

/// Parse a query (SELECT statement), rejecting DML.
pub fn parse_query(sql: &str) -> Result<SelectStatement, ParseError> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        _ => Err(ParseError::new("expected a SELECT statement", 0)),
    }
}

struct Parser<'a> {
    tokens: Vec<SpannedToken<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<SpannedToken<'a>>) -> Parser<'a> {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_ahead(&self, n: usize) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.position)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.position + 1).unwrap_or(0))
    }

    fn advance(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.position())
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos < self.tokens.len() {
            Err(self.error(format!(
                "unexpected trailing input: {:?}",
                self.tokens[self.pos].token
            )))
        } else {
            Ok(())
        }
    }

    fn skip_semicolons(&mut self) {
        while matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k, _)) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw:?}")))
        }
    }

    fn eat_token(&mut self, t: &Token<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token<'_>) -> Result<(), ParseError> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn parse_identifier(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Identifier(s)) => Ok(s.to_string()),
            // Non-reserved usage: allow aggregate names and a few keywords as
            // identifiers when they appear where a name is required.
            Some(Token::Keyword(_, spelling)) => Ok(spelling.to_string()),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::Select, _)) => Ok(Statement::Select(self.parse_select()?)),
            Some(Token::Keyword(Keyword::Insert, _)) => self.parse_insert(),
            Some(Token::Keyword(Keyword::Update, _)) => self.parse_update(),
            Some(Token::Keyword(Keyword::Delete, _)) => self.parse_delete(),
            Some(Token::Keyword(Keyword::Create, _)) => self.parse_create(),
            Some(Token::Keyword(Keyword::Drop, _)) => self.parse_drop_index(),
            Some(Token::Keyword(Keyword::Explain, _)) => {
                self.expect_keyword(Keyword::Explain)?;
                let analyze = self.eat_keyword(Keyword::Analyze);
                if !matches!(self.peek(), Some(Token::Keyword(Keyword::Select, _))) {
                    return Err(self.error("EXPLAIN expects a SELECT statement"));
                }
                let query = self.parse_select()?;
                Ok(Statement::Explain(ExplainStatement { analyze, query }))
            }
            Some(Token::Keyword(Keyword::Show, _)) => self.parse_show(),
            Some(Token::Keyword(Keyword::Advise, _)) => {
                self.pos += 1;
                let limit = if self.eat_keyword(Keyword::Limit) {
                    match self.advance() {
                        Some(Token::Number(n)) => Some(n.parse::<u64>().map_err(|_| {
                            self.error("ADVISE LIMIT expects a non-negative integer")
                        })?),
                        other => {
                            return Err(
                                self.error(format!("LIMIT expects a number, found {other:?}"))
                            )
                        }
                    }
                } else {
                    None
                };
                Ok(Statement::Advise(AdviseStatement { limit }))
            }
            Some(Token::Keyword(Keyword::Checkup, _)) => {
                self.pos += 1;
                Ok(Statement::Checkup)
            }
            Some(Token::Keyword(Keyword::Set, _)) => self.parse_set(),
            other => Err(self.error(format!("expected a statement, found {other:?}"))),
        }
    }

    /// `SET <word>+ [=] <integer>`: the knob name is every word before the
    /// value, lowercased and underscore-joined (`SET JOURNAL CAPACITY 64` →
    /// `journal_capacity = 64`).
    fn parse_set(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Set)?;
        let mut words = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Keyword(_, spelling)) => {
                    words.push(spelling.to_ascii_lowercase());
                    self.pos += 1;
                }
                Some(Token::Identifier(word)) => {
                    words.push(word.to_ascii_lowercase());
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if words.is_empty() {
            return Err(self.error("SET expects a knob name"));
        }
        self.eat_token(&Token::Eq);
        let value = match self.advance() {
            Some(Token::Number(n)) => n
                .parse::<u64>()
                .map_err(|_| self.error("SET expects a non-negative integer value"))?,
            other => return Err(self.error(format!("SET expects a number, found {other:?}"))),
        };
        Ok(Statement::Set(SetStatement {
            name: words.join("_"),
            value,
        }))
    }

    fn parse_show(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Show)?;
        let kind = match self.peek() {
            Some(Token::Keyword(Keyword::Metrics, _)) => {
                self.pos += 1;
                ShowKind::Metrics
            }
            Some(Token::Keyword(Keyword::Query, _)) => {
                self.pos += 1;
                self.expect_keyword(Keyword::Log)?;
                let limit = if self.eat_keyword(Keyword::Limit) {
                    match self.advance() {
                        Some(Token::Number(n)) => Some(n.parse::<u64>().map_err(|_| {
                            self.error("SHOW QUERY LOG LIMIT expects a non-negative integer")
                        })?),
                        other => {
                            return Err(
                                self.error(format!("LIMIT expects a number, found {other:?}"))
                            )
                        }
                    }
                } else {
                    None
                };
                ShowKind::QueryLog { limit }
            }
            Some(Token::Keyword(Keyword::Profile, _)) => {
                self.pos += 1;
                ShowKind::Profile
            }
            Some(Token::Keyword(Keyword::Misestimates, _)) => {
                self.pos += 1;
                ShowKind::Misestimates
            }
            Some(Token::Keyword(Keyword::Workload, _)) => {
                self.pos += 1;
                ShowKind::Workload
            }
            other => {
                return Err(self.error(format!(
                    "SHOW expects METRICS, QUERY LOG, PROFILE, MISESTIMATES, or WORKLOAD, \
                     found {other:?}"
                )))
            }
        };
        Ok(Statement::Show(ShowStatement { kind }))
    }

    fn parse_select(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let mut projection = vec![self.parse_select_item()?];
        while self.eat_token(&Token::Comma) {
            projection.push(self.parse_select_item()?);
        }

        let mut from = Vec::new();
        if self.eat_keyword(Keyword::From) {
            from.push(self.parse_table_ref()?);
            while self.eat_token(&Token::Comma) {
                from.push(self.parse_table_ref()?);
            }
        }

        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat_token(&Token::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }

        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.eat_keyword(Keyword::Desc) {
                    false
                } else {
                    self.eat_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderByItem { expr, ascending });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.advance() {
                Some(Token::Number(n)) => Some(
                    n.parse::<u64>()
                        .map_err(|_| self.error("LIMIT expects a non-negative integer"))?,
                ),
                other => return Err(self.error(format!("LIMIT expects a number, found {other:?}"))),
            }
        } else {
            None
        };

        Ok(SelectStatement {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form
        if let (Some(Token::Identifier(name)), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_ahead(1), self.peek_ahead(2))
        {
            let name = name.to_string();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.parse_identifier()?)
        } else if let Some(Token::Identifier(_)) = self.peek() {
            // Implicit alias.
            Some(self.parse_identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.parse_identifier()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.parse_identifier()?)
        } else if let Some(Token::Identifier(_)) = self.peek() {
            Some(self.parse_identifier()?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.parse_identifier()?;
        let mut columns = Vec::new();
        if self.eat_token(&Token::LParen) {
            columns.push(self.parse_identifier()?);
            while self.eat_token(&Token::Comma) {
                columns.push(self.parse_identifier()?);
            }
            self.expect_token(&Token::RParen)?;
        }
        self.expect_keyword(Keyword::Values)?;
        let mut values = Vec::new();
        loop {
            self.expect_token(&Token::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat_token(&Token::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect_token(&Token::RParen)?;
            values.push(row);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStatement {
            table,
            columns,
            values,
        }))
    }

    fn parse_update(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Update)?;
        let table = self.parse_identifier()?;
        let alias = if let Some(Token::Identifier(_)) = self.peek() {
            if !matches!(self.peek(), Some(Token::Keyword(Keyword::Set, _))) {
                Some(self.parse_identifier()?)
            } else {
                None
            }
        } else {
            None
        };
        self.expect_keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            // Column may be qualified (alias.column); keep only the column.
            let first = self.parse_identifier()?;
            let column = if self.eat_token(&Token::Dot) {
                self.parse_identifier()?
            } else {
                first
            };
            self.expect_token(&Token::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((column, value));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStatement {
            table,
            alias,
            assignments,
            selection,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let table = self.parse_identifier()?;
        let alias = if let Some(Token::Identifier(_)) = self.peek() {
            Some(self.parse_identifier()?)
        } else {
            None
        };
        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStatement {
            table,
            alias,
            selection,
        }))
    }

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Create)?;
        if self.eat_keyword(Keyword::Index) {
            return self.parse_create_index();
        }
        self.expect_keyword(Keyword::View)?;
        let name = self.parse_identifier()?;
        self.expect_keyword(Keyword::As)?;
        let query = self.parse_select()?;
        Ok(Statement::CreateView(CreateViewStatement { name, query }))
    }

    /// `CREATE INDEX name ON table (column, …) [USING HASH]` — the CREATE
    /// and INDEX keywords are already consumed. Multiple columns build a
    /// composite index ordered by the listed columns.
    fn parse_create_index(&mut self) -> Result<Statement, ParseError> {
        let name = self.parse_identifier()?;
        self.expect_keyword(Keyword::On)?;
        let table = self.parse_identifier()?;
        self.expect_token(&Token::LParen)?;
        let mut columns = vec![self.parse_identifier()?];
        while self.eat_token(&Token::Comma) {
            columns.push(self.parse_identifier()?);
        }
        self.expect_token(&Token::RParen)?;
        let hash = if self.eat_keyword(Keyword::Using) {
            if !self.eat_keyword(Keyword::Hash) {
                return Err(self.error("USING expects HASH (the default index is ordered)"));
            }
            true
        } else {
            false
        };
        if hash && columns.len() > 1 {
            return Err(self
                .error("a hash index takes exactly one key column (composite keys are ordered)"));
        }
        Ok(Statement::CreateIndex(CreateIndexStatement {
            name,
            table,
            columns,
            hash,
        }))
    }

    fn parse_drop_index(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Drop)?;
        self.expect_keyword(Keyword::Index)?;
        let name = self.parse_identifier()?;
        Ok(Statement::DropIndex(DropIndexStatement { name }))
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op: BinaryOperator::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op: BinaryOperator::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        // NOT EXISTS is handled at the comparison level so it keeps its
        // dedicated AST shape; a bare NOT over anything else becomes a
        // unary NOT node.
        if matches!(self.peek(), Some(Token::Keyword(Keyword::Not, _)))
            && !matches!(self.peek_ahead(1), Some(Token::Keyword(Keyword::Exists, _)))
        {
            self.pos += 1;
            let inner = self.parse_not()?;
            return Ok(Expr::UnaryOp {
                op: UnaryOperator::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        // [NOT] EXISTS (subquery)
        if self.eat_keyword(Keyword::Not) {
            self.expect_keyword(Keyword::Exists)?;
            let subquery = self.parse_parenthesized_subquery()?;
            return Ok(Expr::Exists {
                subquery: Box::new(subquery),
                negated: true,
            });
        }
        if self.eat_keyword(Keyword::Exists) {
            let subquery = self.parse_parenthesized_subquery()?;
            return Ok(Expr::Exists {
                subquery: Box::new(subquery),
                negated: false,
            });
        }

        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] IN / LIKE / BETWEEN
        let negated = self.eat_keyword(Keyword::Not);
        if self.eat_keyword(Keyword::In) {
            self.expect_token(&Token::LParen)?;
            if matches!(self.peek(), Some(Token::Keyword(Keyword::Select, _))) {
                let subquery = self.parse_select()?;
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(subquery),
                    negated,
                });
            }
            let mut list = vec![self.parse_expr()?];
            while self.eat_token(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(self.error("expected IN, LIKE or BETWEEN after NOT"));
        }

        // Plain comparison, possibly quantified.
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOperator::Eq),
            Some(Token::NotEq) => Some(BinaryOperator::NotEq),
            Some(Token::Lt) => Some(BinaryOperator::Lt),
            Some(Token::LtEq) => Some(BinaryOperator::LtEq),
            Some(Token::Gt) => Some(BinaryOperator::Gt),
            Some(Token::GtEq) => Some(BinaryOperator::GtEq),
            _ => None,
        };
        let Some(op) = op else { return Ok(left) };
        self.pos += 1;

        // Quantified comparison: op ALL/ANY/SOME (subquery)
        let quantifier = if self.eat_keyword(Keyword::All) {
            Some(Quantifier::All)
        } else if self.eat_keyword(Keyword::Any) || self.eat_keyword(Keyword::Some) {
            Some(Quantifier::Any)
        } else {
            None
        };
        if let Some(quantifier) = quantifier {
            let subquery = self.parse_parenthesized_subquery()?;
            return Ok(Expr::QuantifiedComparison {
                left: Box::new(left),
                op,
                quantifier,
                subquery: Box::new(subquery),
            });
        }

        let right = self.parse_additive()?;
        Ok(Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn parse_parenthesized_subquery(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_token(&Token::LParen)?;
        let q = self.parse_select()?;
        self.expect_token(&Token::RParen)?;
        Ok(q)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOperator::Plus,
                Some(Token::Minus) => BinaryOperator::Minus,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOperator::Multiply,
                Some(Token::Slash) => BinaryOperator::Divide,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_token(&Token::Minus) {
            let e = self.parse_unary()?;
            return Ok(Expr::UnaryOp {
                op: UnaryOperator::Minus,
                expr: Box::new(e),
            });
        }
        if self.eat_token(&Token::Plus) {
            let e = self.parse_unary()?;
            return Ok(Expr::UnaryOp {
                op: UnaryOperator::Plus,
                expr: Box::new(e),
            });
        }
        self.parse_primary()
    }

    fn parse_aggregate(&mut self, func: AggregateFunction) -> Result<Expr, ParseError> {
        self.expect_token(&Token::LParen)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let arg = if self.eat_token(&Token::Star) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Aggregate {
            func,
            arg,
            distinct,
        })
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                if n.contains('.') {
                    Ok(Expr::Literal(Literal::Float(n.parse().map_err(|_| {
                        self.error(format!("invalid float literal '{n}'"))
                    })?)))
                } else {
                    Ok(Expr::Literal(Literal::Integer(n.parse().map_err(
                        |_| self.error(format!("invalid integer literal '{n}'")),
                    )?)))
                }
            }
            Some(Token::String(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::String(s.into_owned())))
            }
            Some(Token::Keyword(Keyword::Null, _)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Null))
            }
            Some(Token::Keyword(Keyword::True, _)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Boolean(true)))
            }
            Some(Token::Keyword(Keyword::False, _)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Boolean(false)))
            }
            Some(Token::Keyword(Keyword::Count, _)) => {
                self.pos += 1;
                self.parse_aggregate(AggregateFunction::Count)
            }
            Some(Token::Keyword(Keyword::Sum, _)) => {
                self.pos += 1;
                self.parse_aggregate(AggregateFunction::Sum)
            }
            Some(Token::Keyword(Keyword::Avg, _)) => {
                self.pos += 1;
                self.parse_aggregate(AggregateFunction::Avg)
            }
            Some(Token::Keyword(Keyword::Min, _)) => {
                self.pos += 1;
                self.parse_aggregate(AggregateFunction::Min)
            }
            Some(Token::Keyword(Keyword::Max, _)) => {
                self.pos += 1;
                self.parse_aggregate(AggregateFunction::Max)
            }
            Some(Token::LParen) => {
                self.pos += 1;
                // Parenthesized subquery or expression.
                if matches!(self.peek(), Some(Token::Keyword(Keyword::Select, _))) {
                    let q = self.parse_select()?;
                    self.expect_token(&Token::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(q)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_token(&Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Identifier(name)) => {
                self.pos += 1;
                if self.eat_token(&Token::Dot) {
                    let column = self.parse_identifier()?;
                    Ok(Expr::Column(ColumnRef::qualified(name, column)))
                } else {
                    Ok(Expr::Column(ColumnRef::bare(name)))
                }
            }
            // Soft keywords: words the DDL grammar reserves but that never
            // start an expression, so a column named "index" / "hash" / …
            // keeps parsing as a bare reference.
            Some(Token::Keyword(
                Keyword::Index | Keyword::On | Keyword::Using | Keyword::Hash | Keyword::Drop,
                spelling,
            )) => {
                self.pos += 1;
                if self.eat_token(&Token::Dot) {
                    let column = self.parse_identifier()?;
                    Ok(Expr::Column(ColumnRef::qualified(spelling, column)))
                } else {
                    Ok(Expr::Column(ColumnRef::bare(spelling)))
                }
            }
            other => Err(self.error(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Q1.
    const Q1: &str = "select m.title from MOVIES m, CAST c, ACTOR a \
        where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";

    #[test]
    fn parses_q1_path_query() {
        let q = parse_query(Q1).unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.tuple_variables(), vec!["m", "c", "a"]);
        assert_eq!(q.where_conjuncts().len(), 3);
        assert!(!q.is_aggregate());
        assert!(!q.has_subquery());
    }

    #[test]
    fn parses_explain_and_explain_analyze() {
        let stmt = parse_statement(&format!("explain {Q1}")).unwrap();
        let e = stmt.as_explain().expect("an EXPLAIN statement");
        assert!(!e.analyze);
        assert_eq!(e.query.from.len(), 3);

        let stmt = parse_statement(&format!("EXPLAIN ANALYZE {Q1}")).unwrap();
        let e = stmt.as_explain().expect("an EXPLAIN ANALYZE statement");
        assert!(e.analyze);
        assert_eq!(e.query.tuple_variables(), vec!["m", "c", "a"]);

        // Round trip through display.
        let rendered = stmt.to_string();
        assert!(rendered.starts_with("EXPLAIN ANALYZE SELECT"));
        let again = parse_statement(&rendered).unwrap();
        assert_eq!(stmt, again);
    }

    #[test]
    fn parses_show_statements_and_round_trips() {
        let cases = [
            ("show metrics", ShowKind::Metrics),
            ("SHOW QUERY LOG", ShowKind::QueryLog { limit: None }),
            (
                "show query log limit 5",
                ShowKind::QueryLog { limit: Some(5) },
            ),
            ("Show Profile", ShowKind::Profile),
            ("show misestimates", ShowKind::Misestimates),
            ("show workload", ShowKind::Workload),
        ];
        for (sql, kind) in cases {
            let stmt = parse_statement(sql).unwrap();
            assert_eq!(stmt, Statement::Show(ShowStatement { kind }), "{sql}");
            // Round trip through display.
            let again = parse_statement(&stmt.to_string()).unwrap();
            assert_eq!(stmt, again, "{sql}");
        }
    }

    #[test]
    fn parses_doctor_statements_and_round_trips() {
        let cases = [
            ("advise", Statement::Advise(AdviseStatement { limit: None })),
            (
                "ADVISE LIMIT 3",
                Statement::Advise(AdviseStatement { limit: Some(3) }),
            ),
            ("checkup", Statement::Checkup),
            (
                "set journal capacity 64",
                Statement::Set(SetStatement {
                    name: "journal_capacity".to_string(),
                    value: 64,
                }),
            ),
            (
                "SET JOURNAL CAPACITY = 8",
                Statement::Set(SetStatement {
                    name: "journal_capacity".to_string(),
                    value: 8,
                }),
            ),
        ];
        for (sql, expected) in cases {
            let stmt = parse_statement(sql).unwrap();
            assert_eq!(stmt, expected, "{sql}");
            let again = parse_statement(&stmt.to_string()).unwrap();
            assert_eq!(stmt, again, "{sql}");
        }
        assert!(parse_statement("set 5").is_err());
        assert!(parse_statement("set journal capacity").is_err());
        // The new keywords stay usable as identifiers.
        let q = parse_query("select w.advise from WORKLOAD w where w.checkup = 1").unwrap();
        assert_eq!(q.tuple_variables(), vec!["w"]);
    }

    #[test]
    fn show_rejects_unknown_topics_but_keywords_stay_usable_as_names() {
        let err = parse_statement("show tables").unwrap_err();
        assert!(err.message.contains("SHOW expects"));
        assert!(parse_statement("show query limit 3").is_err());
        // The new keywords must stay non-reserved: `log` and `profile` are
        // plausible column/alias names.
        let q = parse_query("select p.log from PROFILE p where p.query = 1").unwrap();
        assert_eq!(q.tuple_variables(), vec!["p"]);
    }

    #[test]
    fn explain_requires_a_select() {
        let err = parse_statement("explain delete from MOVIES").unwrap_err();
        assert!(err.message.contains("EXPLAIN expects a SELECT"));
        // EXPLAIN is not a valid query for parse_query.
        assert!(parse_query("explain select 1 from MOVIES m").is_err());
    }

    #[test]
    fn explain_as_identifier_still_works_in_name_position() {
        // EXPLAIN became a keyword; make sure a column named "analyze" in a
        // projection alias position does not break.
        let q = parse_query("select m.title as analyze from MOVIES m").unwrap();
        assert_eq!(q.projection.len(), 1);
    }

    #[test]
    fn parses_q3_multi_instance_query() {
        let q = parse_query(
            "select a1.name, a2.name \
             from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid \
               and c2.aid = a2.id and a1.id > a2.id",
        )
        .unwrap();
        assert_eq!(q.from.len(), 5);
        assert_eq!(q.projection.len(), 2);
    }

    #[test]
    fn parses_q5_nested_in_subqueries() {
        let q = parse_query(
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.aid in ( \
                    select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        )
        .unwrap();
        assert!(q.has_subquery());
        let subs = q.selection.as_ref().unwrap().subqueries();
        assert_eq!(subs.len(), 1);
        assert!(subs[0].has_subquery());
    }

    #[test]
    fn parses_q6_double_not_exists() {
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        )
        .unwrap();
        let w = q.selection.unwrap();
        match w {
            Expr::Exists { negated, subquery } => {
                assert!(negated);
                assert!(subquery.has_subquery());
            }
            other => panic!("expected NOT EXISTS, got {other:?}"),
        }
    }

    #[test]
    fn parses_q7_aggregate_with_having_subquery() {
        let q = parse_query(
            "select m.id, m.title, count(*) from MOVIES m, CAST c \
             where m.id = c.mid group by m.id, m.title \
             having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        assert!(q.is_aggregate());
        assert_eq!(q.group_by.len(), 2);
        assert!(q.having.as_ref().unwrap().contains_subquery());
    }

    #[test]
    fn parses_q8_count_distinct_having() {
        let q = parse_query(
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id \
             group by a.id, a.name having count(distinct m.year) = 1",
        )
        .unwrap();
        let having = q.having.unwrap();
        let mut found_distinct = false;
        having.walk(&mut |e| {
            if let Expr::Aggregate { distinct: true, .. } = e {
                found_distinct = true;
            }
        });
        assert!(found_distinct);
    }

    #[test]
    fn parses_q9_quantified_comparison() {
        let q = parse_query(
            "select a.name from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and m.year <= all ( \
                select m1.year from MOVIES m1, MOVIES m2 \
                where m1.title = m.title and m2.title = m.title and m1.id != m2.id)",
        )
        .unwrap();
        let mut found = false;
        q.selection.as_ref().unwrap().walk(&mut |e| {
            if let Expr::QuantifiedComparison {
                quantifier: Quantifier::All,
                op: BinaryOperator::LtEq,
                ..
            } = e
            {
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn parses_order_by_limit_distinct() {
        let q = parse_query(
            "select distinct m.title from MOVIES m order by m.year desc, m.title limit 5",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].ascending);
        assert!(q.order_by[1].ascending);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parses_dml_statements() {
        let s = parse_statement(
            "insert into MOVIES (id, title, year) values (11, 'New Movie', 2008), (12, 'Other', 2009)",
        )
        .unwrap();
        match s {
            Statement::Insert(i) => {
                assert_eq!(i.table, "MOVIES");
                assert_eq!(i.columns.len(), 3);
                assert_eq!(i.values.len(), 2);
            }
            other => panic!("expected insert, got {other:?}"),
        }

        let s = parse_statement("update EMP set sal = sal + 1000 where did = 10").unwrap();
        match s {
            Statement::Update(u) => {
                assert_eq!(u.table, "EMP");
                assert_eq!(u.assignments.len(), 1);
                assert!(u.selection.is_some());
            }
            other => panic!("expected update, got {other:?}"),
        }

        let s = parse_statement("delete from CAST where role is null").unwrap();
        match s {
            Statement::Delete(d) => {
                assert_eq!(d.table, "CAST");
                assert!(matches!(d.selection, Some(Expr::IsNull { .. })));
            }
            other => panic!("expected delete, got {other:?}"),
        }

        let s = parse_statement(
            "create view ACTION_MOVIES as select m.title from MOVIES m, GENRE g \
             where m.id = g.mid and g.genre = 'action'",
        )
        .unwrap();
        assert!(matches!(s, Statement::CreateView(_)));
    }

    #[test]
    fn parses_create_and_drop_index() {
        let s = parse_statement("create index idx_year on MOVIES (year)").unwrap();
        match &s {
            Statement::CreateIndex(ci) => {
                assert_eq!(ci.name, "idx_year");
                assert_eq!(ci.table, "MOVIES");
                assert_eq!(ci.columns, vec!["year".to_string()]);
                assert!(!ci.hash);
            }
            other => panic!("expected CREATE INDEX, got {other:?}"),
        }
        // Round trip through display.
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);

        let s = parse_statement("CREATE INDEX h_name ON ACTOR (name) USING HASH").unwrap();
        match &s {
            Statement::CreateIndex(ci) => assert!(ci.hash),
            other => panic!("expected CREATE INDEX, got {other:?}"),
        }
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);

        // A composite key parses in declaration order and round-trips.
        let s = parse_statement("create index g_mid_genre on GENRE (mid, genre)").unwrap();
        match &s {
            Statement::CreateIndex(ci) => {
                assert_eq!(ci.columns, vec!["mid".to_string(), "genre".to_string()]);
                assert!(!ci.hash);
            }
            other => panic!("expected CREATE INDEX, got {other:?}"),
        }
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);

        let s = parse_statement("drop index idx_year;").unwrap();
        match &s {
            Statement::DropIndex(di) => assert_eq!(di.name, "idx_year"),
            other => panic!("expected DROP INDEX, got {other:?}"),
        }
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);

        // Composite hash keys and unknown USING methods are named errors.
        let err = parse_statement("create index i on T (a, b) using hash").unwrap_err();
        assert!(err.message.contains("exactly one key column"));
        let err = parse_statement("create index i on T (a) using btree").unwrap_err();
        assert!(err.message.contains("USING expects HASH"));
        // CREATE VIEW still parses after the CREATE dispatch split.
        assert!(matches!(
            parse_statement("create view V as select * from T").unwrap(),
            Statement::CreateView(_)
        ));
    }

    #[test]
    fn ddl_keywords_stay_usable_as_bare_column_names() {
        // INDEX/ON/USING/HASH/DROP are reserved for DDL but never start an
        // expression, so columns with those names must keep parsing.
        let q = parse_query("select hash, index from T where drop = 1 and using > on").unwrap();
        assert_eq!(q.projection.len(), 2);
        assert_eq!(q.where_conjuncts().len(), 2);
        match &q.projection[0] {
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => assert_eq!(c.column, "hash"),
            other => panic!("expected a bare column, got {other:?}"),
        }
        // Qualified forms too.
        let q = parse_query("select t.hash from T t where t.index = 2").unwrap();
        assert_eq!(q.where_conjuncts().len(), 1);
    }

    #[test]
    fn parses_between_like_in_list() {
        let q = parse_query(
            "select m.title from MOVIES m \
             where m.year between 2000 and 2005 and m.title like 'The%' \
               and m.id in (1, 2, 3) and m.id not in (9)",
        )
        .unwrap();
        let conjuncts = q.where_conjuncts();
        assert_eq!(conjuncts.len(), 4);
        assert!(matches!(conjuncts[0], Expr::Between { .. }));
        assert!(matches!(conjuncts[1], Expr::Like { .. }));
        assert!(matches!(conjuncts[2], Expr::InList { negated: false, .. }));
        assert!(matches!(conjuncts[3], Expr::InList { negated: true, .. }));
    }

    #[test]
    fn precedence_or_binds_loosest() {
        let q = parse_query("select * from T where a = 1 and b = 2 or c = 3").unwrap();
        match q.selection.unwrap() {
            Expr::BinaryOp {
                op: BinaryOperator::Or,
                ..
            } => {}
            other => panic!("expected OR at the top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_query("select * from T where a = 1 + 2 * 3").unwrap();
        // RHS of the comparison should be 1 + (2 * 3).
        match q.selection.unwrap() {
            Expr::BinaryOp { right, .. } => match *right {
                Expr::BinaryOp {
                    op: BinaryOperator::Plus,
                    right: inner,
                    ..
                } => match *inner {
                    Expr::BinaryOp {
                        op: BinaryOperator::Multiply,
                        ..
                    } => {}
                    other => panic!("expected multiply nested under plus, got {other:?}"),
                },
                other => panic!("expected plus, got {other:?}"),
            },
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn reports_errors_with_positions() {
        assert!(parse_query("select from").is_err());
        assert!(parse_query("select * frm T").is_err());
        assert!(parse_query("select * from T where").is_err());
        let err = parse_query("select * from T where a = ").unwrap_err();
        assert!(err.position > 0);
    }

    #[test]
    fn trailing_semicolon_is_accepted() {
        assert!(parse_query("select * from T;").is_ok());
        assert!(parse_query("select * from T; garbage").is_err());
    }

    #[test]
    fn qualified_wildcard_projection() {
        let q = parse_query("select m.* , a.name from MOVIES m, ACTOR a").unwrap();
        assert!(matches!(q.projection[0], SelectItem::QualifiedWildcard(ref s) if s == "m"));
    }

    #[test]
    fn not_between_and_unary_not() {
        let q = parse_query("select * from T where not (a = 1) and b not between 1 and 2").unwrap();
        let c = q.where_conjuncts().len();
        assert_eq!(c, 2);
    }
}
