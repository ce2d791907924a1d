//! Parser for the concrete DOL syntax used in the paper's listings.

use crate::ast::{
    Combine, DolCond, DolProgram, DolStmt, HomeEdge, Partial, TaskDef, TaskStatus, TaskVerb,
    Traveller,
};
use crate::error::DolError;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Int(u64),
    /// A quoted string, `''` read as one quote.
    Str(String),
    Block(String),
    Semi,
    Comma,
    LParen,
    RParen,
    Eq,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1 }
    }

    fn error(&self, message: impl Into<String>) -> DolError {
        DolError::Parse { message: message.into(), line: self.line }
    }

    fn tokenize(mut self) -> Result<Vec<(Tok, usize)>, DolError> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'-' if self.bytes.get(self.pos + 1) == Some(&b'-') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b';' => {
                    out.push((Tok::Semi, self.line));
                    self.pos += 1;
                }
                b',' => {
                    out.push((Tok::Comma, self.line));
                    self.pos += 1;
                }
                b'(' => {
                    out.push((Tok::LParen, self.line));
                    self.pos += 1;
                }
                b')' => {
                    out.push((Tok::RParen, self.line));
                    self.pos += 1;
                }
                b'=' => {
                    out.push((Tok::Eq, self.line));
                    self.pos += 1;
                }
                b'{' => {
                    // A `}` inside a quoted SQL literal does not end the block.
                    let start = self.pos + 1;
                    let mut end = start;
                    let mut quoted = false;
                    while end < self.bytes.len() && (quoted || self.bytes[end] != b'}') {
                        if self.bytes[end] == b'\n' {
                            self.line += 1;
                        }
                        if self.bytes[end] == b'\'' {
                            quoted = !quoted;
                        }
                        end += 1;
                    }
                    if end >= self.bytes.len() {
                        return Err(self.error("unterminated `{` block"));
                    }
                    out.push((Tok::Block(self.src[start..end].trim().to_string()), self.line));
                    self.pos = end + 1;
                }
                b'\'' => {
                    // A quote inside the string is doubled.
                    let mut end = self.pos + 1;
                    loop {
                        match (self.bytes.get(end), self.bytes.get(end + 1)) {
                            (None, _) => return Err(self.error("unterminated string")),
                            (Some(b'\''), Some(b'\'')) => end += 2,
                            (Some(b'\''), _) => break,
                            _ => end += 1,
                        }
                    }
                    let text = self.src[self.pos + 1..end].replace("''", "'");
                    self.line += text.matches('\n').count();
                    out.push((Tok::Str(text), self.line));
                    self.pos = end + 1;
                }
                _ if b.is_ascii_digit() => {
                    let start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                        self.pos += 1;
                    }
                    let text = &self.src[start..self.pos];
                    let v: u64 =
                        text.parse().map_err(|_| self.error(format!("bad integer `{text}`")))?;
                    out.push((Tok::Int(v), self.line));
                }
                _ if b.is_ascii_alphabetic() || b == b'_' => {
                    let start = self.pos;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos].is_ascii_alphanumeric()
                            || self.bytes[self.pos] == b'_')
                    {
                        self.pos += 1;
                    }
                    out.push((Tok::Word(self.src[start..self.pos].to_string()), self.line));
                }
                other => {
                    return Err(self.error(format!("unexpected character {:?}", other as char)))
                }
            }
        }
        Ok(out)
    }
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> DolError {
        DolError::Parse { message: message.into(), line: self.line() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DolError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn expect_word(&mut self) -> Result<String, DolError> {
        match self.bump() {
            Some(Tok::Word(w)) => Ok(w),
            other => Err(self.error(format!("expected a name, found {other:?}"))),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), DolError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn parse_program(&mut self) -> Result<DolProgram, DolError> {
        self.expect_kw("dolbegin")?;
        let mut statements = Vec::new();
        while !self.peek_kw("dolend") {
            if self.peek().is_none() {
                return Err(self.error("missing DOLEND"));
            }
            statements.push(self.parse_stmt()?);
            while self.eat(&Tok::Semi) {}
        }
        self.expect_kw("dolend")?;
        Ok(DolProgram { statements })
    }

    fn parse_stmt(&mut self) -> Result<DolStmt, DolError> {
        if self.eat_kw("open") {
            let service = self.expect_word()?;
            self.expect_kw("at")?;
            let site = self.expect_word()?;
            self.expect_kw("as")?;
            let alias = self.expect_word()?;
            return Ok(DolStmt::Open { service, site, alias });
        }
        if self.eat_kw("task") {
            return self.parse_task();
        }
        if self.eat_kw("if") {
            return self.parse_if();
        }
        if self.eat_kw("commit") {
            return Ok(DolStmt::Commit { tasks: self.parse_name_list()? });
        }
        if self.eat_kw("abort") {
            return Ok(DolStmt::Abort { tasks: self.parse_name_list()? });
        }
        if self.eat_kw("compensate") {
            return Ok(DolStmt::Compensate { task: self.expect_word()? });
        }
        if self.eat_kw("decide") {
            return Ok(DolStmt::Decide(self.expect_code()?));
        }
        if self.eat_kw("dolstatus") {
            self.expect(&Tok::Eq)?;
            return Ok(DolStmt::SetStatus(self.expect_code()?));
        }
        if self.eat_kw("close") {
            let mut aliases = Vec::new();
            while let Some(Tok::Word(_)) = self.peek() {
                aliases.push(self.expect_word()?);
                self.eat(&Tok::Comma);
            }
            if aliases.is_empty() {
                return Err(self.error("CLOSE requires at least one alias"));
            }
            return Ok(DolStmt::Close { aliases });
        }
        Err(self.error(format!("unexpected token {:?}", self.peek())))
    }

    fn parse_name_list(&mut self) -> Result<Vec<String>, DolError> {
        let mut names = vec![self.expect_word()?];
        while self.eat(&Tok::Comma) {
            names.push(self.expect_word()?);
        }
        Ok(names)
    }

    fn expect_int(&mut self) -> Result<u64, DolError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            other => Err(self.error(format!("expected a number, found {other:?}"))),
        }
    }

    /// A `DECIDE` or `DOLSTATUS` code.
    fn expect_code(&mut self) -> Result<i32, DolError> {
        let v = self.expect_int()?;
        i32::try_from(v).map_err(|_| self.error(format!("code {v} out of range")))
    }

    fn expect_string(&mut self) -> Result<String, DolError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(s),
            other => Err(self.error(format!("expected a quoted string, found {other:?}"))),
        }
    }

    fn expect_block(&mut self, what: &str) -> Result<String, DolError> {
        match self.bump() {
            Some(Tok::Block(b)) => Ok(b),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    /// A one-letter status code.
    fn expect_status(&mut self) -> Result<TaskStatus, DolError> {
        let status_word = self.expect_word()?;
        if status_word.len() != 1 {
            return Err(self.error(format!("expected a status code, found `{status_word}`")));
        }
        TaskStatus::from_code(status_word.chars().next().unwrap())
            .ok_or_else(|| self.error(format!("unknown status code `{status_word}`")))
    }

    fn parse_task(&mut self) -> Result<DolStmt, DolError> {
        let name = self.expect_word()?;
        let nocommit = self.eat_kw("nocommit");
        let mut verb = self.parse_verb()?;
        self.expect_kw("for")?;
        let service = self.expect_word()?;
        let commands = split_commands(&self.expect_block("a `{ sql }` block")?);
        match &mut verb {
            TaskVerb::PartialAgg(partial) | TaskVerb::Ship { partial, .. } => {
                *partial = self.parse_partial()?;
            }
            TaskVerb::Combine(c) => {
                c.notes = self.parse_notes()?;
                self.expect_kw("home")?;
                c.home = self.expect_block("a HOME block")?;
                c.home_notes = self.parse_notes()?;
                while self.eat_kw("edge") {
                    let reducer = self.expect_word()?;
                    let key_column = self.expect_word()?;
                    let binding = self.expect_word()?;
                    let column = self.expect_word()?;
                    let rule = self.expect_string()?.parse().map_err(|e: String| self.error(e))?;
                    c.edges.push(HomeEdge { reducer, key_column, binding, column, rule });
                }
                while self.eat_kw("part") {
                    let database = self.expect_word()?;
                    self.expect_kw("at")?;
                    let site = self.expect_word()?;
                    let posted = !self.eat_kw("echoed");
                    let sql = self.expect_block("a PART block")?;
                    let partial = self.parse_partial()?;
                    c.travellers.push(Traveller { site, database, sql, posted, partial });
                }
            }
            _ => {}
        }
        let compensation = if self.eat_kw("comp") {
            split_commands(&self.expect_block("a COMP block")?)
        } else {
            Vec::new()
        };
        self.expect_kw("endtask")?;
        Ok(DolStmt::Task(TaskDef { name, service, nocommit, verb, commands, compensation }))
    }

    /// The verb between a task's name (and `NOCOMMIT`) and `FOR`; the
    /// arguments after the command block are left to [`Self::parse_task`].
    fn parse_verb(&mut self) -> Result<TaskVerb, DolError> {
        let word = match self.peek() {
            Some(Tok::Word(w)) if !w.eq_ignore_ascii_case("for") => w.to_ascii_lowercase(),
            _ => return Ok(TaskVerb::Run),
        };
        self.pos += 1;
        let verb = match word.as_str() {
            "hold" => TaskVerb::Hold,
            "exec" => TaskVerb::Exec,
            "prepare" => TaskVerb::Prepare,
            "abort" => TaskVerb::Abort,
            "compensate" => TaskVerb::Compensate,
            "resolve" if self.eat_kw("commit") => TaskVerb::Resolve(true),
            "resolve" => {
                self.expect_kw("abort")?;
                TaskVerb::Resolve(false)
            }
            "settled" => TaskVerb::Settled(self.expect_status()?),
            "partialagg" => TaskVerb::PartialAgg(Partial::default()),
            "ship" => {
                let key = self.expect_int()?;
                self.expect_kw("to")?;
                let to = self.expect_word()?;
                self.expect_kw("echo")?;
                TaskVerb::Ship { key, to, partial: Partial::default() }
            }
            "combine" => {
                let key = self.expect_int()?;
                let measure = self.eat_kw("measure");
                TaskVerb::Combine(Box::new(Combine { key, measure, ..Default::default() }))
            }
            _ => return Err(self.error(format!("expected FOR or a task verb, found `{word}`"))),
        };
        Ok(verb)
    }

    /// A partial's `[BASELINE { sql }]` and its `NOTE`s.
    fn parse_partial(&mut self) -> Result<Partial, DolError> {
        let baseline = if self.eat_kw("baseline") {
            Some(self.expect_block("a BASELINE block")?)
        } else {
            None
        };
        Ok(Partial { baseline, notes: self.parse_notes()? })
    }

    fn parse_notes(&mut self) -> Result<Vec<(String, String)>, DolError> {
        let mut notes = Vec::new();
        while self.eat_kw("note") {
            notes.push((self.expect_word()?, self.expect_string()?));
        }
        Ok(notes)
    }

    fn parse_if(&mut self) -> Result<DolStmt, DolError> {
        let cond = self.parse_cond()?;
        self.expect_kw("then")?;
        let then_branch = self.parse_branch()?;
        let else_branch = if self.eat_kw("else") { self.parse_branch()? } else { Vec::new() };
        Ok(DolStmt::If { cond, then_branch, else_branch })
    }

    fn parse_branch(&mut self) -> Result<Vec<DolStmt>, DolError> {
        if self.eat_kw("begin") {
            let mut stmts = Vec::new();
            while !self.peek_kw("end") {
                if self.peek().is_none() {
                    return Err(self.error("missing END"));
                }
                stmts.push(self.parse_stmt()?);
                while self.eat(&Tok::Semi) {}
            }
            self.expect_kw("end")?;
            self.eat(&Tok::Semi);
            Ok(stmts)
        } else {
            let s = self.parse_stmt()?;
            self.eat(&Tok::Semi);
            Ok(vec![s])
        }
    }

    fn parse_cond(&mut self) -> Result<DolCond, DolError> {
        let mut left = self.parse_cond_and()?;
        while self.eat_kw("or") {
            let right = self.parse_cond_and()?;
            left = DolCond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_cond_and(&mut self) -> Result<DolCond, DolError> {
        let mut left = self.parse_cond_atom()?;
        while self.eat_kw("and") {
            let right = self.parse_cond_atom()?;
            left = DolCond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_cond_atom(&mut self) -> Result<DolCond, DolError> {
        if self.eat_kw("not") {
            return Ok(DolCond::Not(Box::new(self.parse_cond_atom()?)));
        }
        if self.eat(&Tok::LParen) {
            let c = self.parse_cond()?;
            self.expect(&Tok::RParen)?;
            return Ok(c);
        }
        let task = self.expect_word()?;
        self.expect(&Tok::Eq)?;
        Ok(DolCond::StatusEq { task, status: self.expect_status()? })
    }
}

/// Splits a `{ ... }` block into individual SQL commands on semicolons.
fn split_commands(block: &str) -> Vec<String> {
    // Semicolons inside string literals must not split.
    let mut commands = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for ch in block.chars() {
        match ch {
            '\'' => {
                in_string = !in_string;
                current.push(ch);
            }
            ';' if !in_string => {
                let trimmed = current.trim();
                if !trimmed.is_empty() {
                    commands.push(trimmed.to_string());
                }
                current.clear();
            }
            _ => current.push(ch),
        }
    }
    let trimmed = current.trim();
    if !trimmed.is_empty() {
        commands.push(trimmed.to_string());
    }
    commands
}

/// Parses a DOL program.
pub fn parse_program(src: &str) -> Result<DolProgram, DolError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser { tokens, pos: 0 };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_PROGRAM: &str = "
        DOLBEGIN
        OPEN continental AT site1 AS cont;
        OPEN delta AT site2 AS delta;
        OPEN united AT site3 AS unit;
        TASK T1 NOCOMMIT FOR cont
        { UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' }
        ENDTASK;
        TASK T2 FOR delta
        { UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' }
        ENDTASK;
        TASK T3 NOCOMMIT FOR unit
        { UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' }
        ENDTASK;
        IF (T1=P) AND (T3=P) THEN
        BEGIN
            COMMIT T1, T3;
            DOLSTATUS=0;
        END;
        ELSE
        BEGIN
            ABORT T1, T3;
            DOLSTATUS=1;
        END;
        CLOSE cont delta unit;
        DOLEND";

    #[test]
    fn parses_the_papers_program() {
        let p = parse_program(PAPER_PROGRAM).unwrap();
        assert_eq!(p.statements.len(), 8);
        // Three OPENs.
        assert!(matches!(&p.statements[0], DolStmt::Open { service, site, alias }
            if service == "continental" && site == "site1" && alias == "cont"));
        // Tasks.
        let tasks = p.tasks();
        assert_eq!(tasks.len(), 3);
        assert!(tasks[0].nocommit);
        assert!(!tasks[1].nocommit);
        assert_eq!(tasks[0].service, "cont");
        assert_eq!(tasks[0].commands.len(), 1);
        assert!(tasks[0].commands[0].starts_with("UPDATE flights"));
        // The IF.
        let DolStmt::If { cond, then_branch, else_branch } = &p.statements[6] else {
            panic!("{:?}", p.statements[6])
        };
        assert_eq!(
            *cond,
            DolCond::And(
                Box::new(DolCond::StatusEq { task: "T1".into(), status: TaskStatus::Prepared }),
                Box::new(DolCond::StatusEq { task: "T3".into(), status: TaskStatus::Prepared }),
            )
        );
        assert_eq!(then_branch.len(), 2);
        assert!(
            matches!(&then_branch[0], DolStmt::Commit { tasks } if tasks == &vec!["T1".to_string(), "T3".to_string()])
        );
        assert!(matches!(then_branch[1], DolStmt::SetStatus(0)));
        assert!(matches!(&else_branch[0], DolStmt::Abort { .. }));
        assert!(matches!(else_branch[1], DolStmt::SetStatus(1)));
        // CLOSE.
        assert!(matches!(&p.statements[7], DolStmt::Close { aliases } if aliases.len() == 3));
    }

    #[test]
    fn parses_task_with_compensation() {
        let p = parse_program(
            "DOLBEGIN
             OPEN continental AT site1 AS cont;
             TASK T1 FOR cont
             { UPDATE flights SET rate = rate * 1.1 }
             COMP
             { UPDATE flights SET rate = rate / 1.1 }
             ENDTASK;
             COMPENSATE T1;
             DOLEND",
        )
        .unwrap();
        let tasks = p.tasks();
        assert_eq!(tasks[0].compensation.len(), 1);
        assert!(tasks[0].compensation[0].contains("/ 1.1"));
        assert!(matches!(&p.statements[2], DolStmt::Compensate { task } if task == "T1"));
    }

    #[test]
    fn splits_multiple_commands_in_block() {
        let p = parse_program(
            "DOLBEGIN
             TASK T1 FOR svc
             { INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); }
             ENDTASK;
             DOLEND",
        )
        .unwrap();
        assert_eq!(p.tasks()[0].commands.len(), 2);
    }

    #[test]
    fn semicolon_inside_string_does_not_split() {
        let p = parse_program(
            "DOLBEGIN
             TASK T1 FOR svc
             { INSERT INTO t VALUES ('a;b') }
             ENDTASK;
             DOLEND",
        )
        .unwrap();
        assert_eq!(p.tasks()[0].commands.len(), 1);
        assert!(p.tasks()[0].commands[0].contains("a;b"));
        // Nor does a brace end the block.
        let p = parse_program(
            "DOLBEGIN TASK T1 FOR db { UPDATE t SET note = 'a}b'; DELETE FROM t } ENDTASK; DOLEND",
        )
        .unwrap();
        assert_eq!(p.tasks()[0].commands, vec!["UPDATE t SET note = 'a}b'", "DELETE FROM t"]);
    }

    #[test]
    fn parses_verbs_and_their_arguments() {
        let p = parse_program(
            "DOLBEGIN
             TASK G1 NOCOMMIT HOLD FOR db { UPDATE t SET x = 1 } ENDTASK;
             TASK G2 SETTLED k FOR db {  } ENDTASK;
             TASK R1 RESOLVE ABORT FOR db {  } ENDTASK;
             TASK delta SHIP 7 TO site1 ECHO FOR delta { SELECT 1 }
             BASELINE { SELECT 2 } NOTE route 'it''s shipped'
             ENDTASK;
             DOLEND",
        )
        .unwrap();
        let verbs: Vec<&TaskVerb> = p.tasks().iter().map(|t| &t.verb).collect();
        let partial = Partial {
            baseline: Some("SELECT 2".into()),
            notes: vec![("route".into(), "it's shipped".into())],
        };
        assert_eq!(
            verbs,
            [
                &TaskVerb::Hold,
                &TaskVerb::Settled(TaskStatus::Compensated),
                &TaskVerb::Resolve(false),
                &TaskVerb::Ship { key: 7, to: "site1".into(), partial },
            ]
        );
        assert!(p.tasks()[0].nocommit);
        assert!(parse_program("DOLBEGIN TASK T1 SETTLED X FOR db { } ENDTASK; DOLEND").is_err());
        assert!(parse_program("DOLBEGIN TASK T1 COMBINE 1 FOR db { } ENDTASK; DOLEND").is_err());
    }

    #[test]
    fn condition_precedence_not_and_or() {
        let p = parse_program(
            "DOLBEGIN
             IF NOT T1=A AND T2=P OR T3=C THEN DOLSTATUS=0;
             DOLEND",
        )
        .unwrap();
        let DolStmt::If { cond, .. } = &p.statements[0] else { panic!() };
        // ((NOT T1=A) AND T2=P) OR T3=C
        let DolCond::Or(left, right) = cond else { panic!("{cond:?}") };
        assert!(matches!(**right, DolCond::StatusEq { .. }));
        let DolCond::And(l2, _) = left.as_ref() else { panic!() };
        assert!(matches!(**l2, DolCond::Not(_)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("DOLBEGIN\nOPEN x\nDOLEND").unwrap_err();
        let DolError::Parse { line, .. } = err else { panic!() };
        assert_eq!(line, 3); // `AT` expected where DOLEND appears
    }

    #[test]
    fn rejects_unterminated_block() {
        assert!(parse_program("DOLBEGIN TASK T1 FOR s { oops ENDTASK; DOLEND").is_err());
    }

    #[test]
    fn rejects_missing_dolend() {
        assert!(parse_program("DOLBEGIN OPEN a AT b AS c;").is_err());
    }

    #[test]
    fn parses_decide() {
        let p = parse_program("DOLBEGIN DECIDE 0; DECIDE 99; DOLEND").unwrap();
        assert!(matches!(p.statements[0], DolStmt::Decide(0)));
        assert!(matches!(p.statements[1], DolStmt::Decide(99)));
        assert!(parse_program("DOLBEGIN DECIDE x; DOLEND").is_err());
    }

    #[test]
    fn if_without_else() {
        let p = parse_program("DOLBEGIN IF T1=C THEN DOLSTATUS=0; DOLEND").unwrap();
        let DolStmt::If { else_branch, .. } = &p.statements[0] else { panic!() };
        assert!(else_branch.is_empty());
    }
}
