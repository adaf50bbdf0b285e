//! The canonical form of a query.
//!
//! MSCN reads a query as three unordered *sets* — tables, joins and
//! predicates — so clause order, aliasing and join direction carry no
//! meaning. [`CanonicalQuery`] is the one place that erases them. Every
//! serving-side identity of a query derives from it: the estimate-cache
//! key, the template interner key, the drift-monitor label and the
//! harvest dedupe key.

use std::fmt::Write as _;

use ds_storage::catalog::{ColRef, Database, TableId};
use ds_storage::predicate::{PredOpKind, PredTest};

use crate::query::Query;

/// A query with its set semantics made explicit, split into literal-free
/// *template words* and *literal words*.
///
/// * Template words: `[#tables, tables…, #joins, joins…, predicates…]`.
///   Table ids ascend. Each join is a `[table, col, table, col]` quad with
///   the smaller `(table, col)` endpoint first; quads ascend. Each
///   predicate is a `(table, col, op)` triple, `op` being
///   [`PredOpKind::index`].
/// * Literal words: each predicate's literals in template order — one
///   word for a comparison; for `IN` the list length, then the sorted
///   list; for `LIKE` the pattern length, then its bytes.
///
/// Predicates are ordered by `(table, col, op, literals)`. So queries that
/// differ only in literals share their template words, and two queries
/// share a whole canonical form exactly when they are the same query up to
/// clause order, aliasing and join direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalQuery {
    template: Vec<u32>,
    literals: Vec<i64>,
}

/// A predicate's literals as its sort key. Predicates compare by op before
/// literals, so only same-kind variants are ever compared; `Bytes` orders
/// exactly like the byte values widened to `i64`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Lits<'a> {
    One(i64),
    List(&'a [i64]),
    Bytes(&'a [u8]),
}

impl Query {
    /// The query's canonical form. See [`CanonicalQuery`].
    pub fn canonical(&self) -> CanonicalQuery {
        let mut tables: Vec<u32> = self.tables.iter().map(|t| t.0 as u32).collect();
        tables.sort_unstable();
        let mut joins: Vec<[u32; 4]> = self
            .joins
            .iter()
            .map(|j| {
                let j = j.canonical();
                let (l, r) = (j.left, j.right);
                [l.table.0, l.col, r.table.0, r.col].map(|w| w as u32)
            })
            .collect();
        joins.sort_unstable();
        let mut preds: Vec<([u32; 3], Lits<'_>)> = self
            .predicates
            .iter()
            .map(|(t, p)| {
                let lits = match &p.test {
                    PredTest::Cmp(_, v) => Lits::One(*v),
                    PredTest::In(values) => Lits::List(values),
                    PredTest::Like(pat) => Lits::Bytes(pat.as_str().as_bytes()),
                };
                let op = p.op_kind().index() as u32;
                ([t.0 as u32, p.col as u32, op], lits)
            })
            .collect();
        preds.sort_unstable();
        let mut template = Vec::with_capacity(2 + tables.len() + 4 * joins.len() + 3 * preds.len());
        template.push(tables.len() as u32);
        template.extend_from_slice(&tables);
        template.push(joins.len() as u32);
        template.extend(joins.iter().flatten());
        let mut literals = Vec::with_capacity(preds.len());
        for (triple, lits) in &preds {
            template.extend_from_slice(triple);
            match *lits {
                Lits::One(v) => literals.push(v),
                Lits::List(values) => {
                    literals.push(values.len() as i64);
                    literals.extend_from_slice(values);
                }
                Lits::Bytes(bytes) => {
                    literals.push(bytes.len() as i64);
                    literals.extend(bytes.iter().map(|&b| i64::from(b)));
                }
            }
        }
        CanonicalQuery { template, literals }
    }
}

impl CanonicalQuery {
    /// The template words: everything but the literals.
    pub fn template(&self) -> &[u32] {
        &self.template
    }

    /// The literal words, in template order.
    pub fn literals(&self) -> &[i64] {
        &self.literals
    }

    /// The template words split into `(tables, join words, predicate words)`.
    fn sections(&self) -> (&[u32], &[u32], &[u32]) {
        let nt = self.template[0] as usize;
        let (tables, rest) = self.template[1..].split_at(nt);
        let nj = rest[0] as usize;
        let (joins, preds) = rest[1..].split_at(4 * nj);
        (tables, joins, preds)
    }

    /// Each predicate's `(table, col, op)` triple with its literals.
    fn predicates(&self) -> impl Iterator<Item = (&[u32], &[i64])> {
        let (_, _, preds) = self.sections();
        let mut lits = self.literals.as_slice();
        preds.chunks_exact(3).map(move |p| {
            let n = match PredOpKind::ALL[p[2] as usize] {
                PredOpKind::In | PredOpKind::Like => {
                    let n = lits[0] as usize;
                    lits = &lits[1..];
                    n
                }
                _ => 1,
            };
            let (mine, rest) = lits.split_at(n);
            lits = rest;
            (p, mine)
        })
    }

    /// The template label: sorted table names, join equalities and
    /// predicate shapes with literals elided, e.g.
    /// `movie_keyword,title|movie_keyword.movie_id=title.id|title.kind_id.IN.?`.
    /// Space-free by construction (identifier characters plus `,|+=<>?.`),
    /// so it fits one wire token. The spelling is persisted (monitor state
    /// in DSNP snapshots, harvest keys in DSHV files), so it must never
    /// change.
    pub fn template_label(&self, db: &Database) -> String {
        let (tables, joins, preds) = self.sections();
        let col = |t: u32, c: u32| db.col_name(ColRef::new(TableId(t as usize), c as usize));
        let mut tables: Vec<String> = tables
            .iter()
            .map(|&t| db.table(TableId(t as usize)).name().to_string())
            .collect();
        let mut joins: Vec<String> = joins
            .chunks_exact(4)
            .map(|j| {
                let (l, r) = (col(j[0], j[1]), col(j[2], j[3]));
                if l <= r {
                    format!("{l}={r}")
                } else {
                    format!("{r}={l}")
                }
            })
            .collect();
        let mut preds: Vec<String> = preds
            .chunks_exact(3)
            .map(|p| {
                // Comparison tokens keep their legacy spelling; the
                // word-like operators get dot delimiters so the label stays
                // unambiguous against identifier characters.
                let tok = match PredOpKind::ALL[p[2] as usize] {
                    PredOpKind::In => ".IN.",
                    PredOpKind::Like => ".LIKE.",
                    k => k.sql(),
                };
                format!("{}{tok}?", col(p[0], p[1]))
            })
            .collect();
        for section in [&mut tables, &mut joins, &mut preds] {
            section.sort_unstable();
        }
        let mut out = tables.join(",");
        for section in [joins, preds].iter().filter(|s| !s.is_empty()) {
            out.push('|');
            out.push_str(&section.join("+"));
        }
        out
    }

    /// `template_label` followed by every predicate's literals in
    /// canonical order, one `#{table}.{col}:{op}={lit,lit,…}` group each
    /// (a `LIKE` pattern as its byte values). Two concrete queries share
    /// this label exactly when they share the canonical form. Persisted as
    /// the harvest dedupe key, so the spelling must never change.
    pub fn concrete_label(&self, template_label: &str) -> String {
        let mut out = String::with_capacity(template_label.len() + 12 * self.literals.len());
        out.push_str(template_label);
        for (p, lits) in self.predicates() {
            let lits: Vec<String> = lits.iter().map(i64::to_string).collect();
            let _ = write!(out, "#{}.{}:{}={}", p[0], p[1], p[2], lits.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    /// One row per query family: two spellings of the same query (clause
    /// order, aliases and join direction shuffled), a literal-only
    /// variant, and the expected template and concrete labels. Both labels
    /// are persisted (DSNP monitor state, DSHV harvest keys), so existing
    /// files only stay readable while these strings match byte for byte.
    #[test]
    fn canonical_form_pins_the_persisted_spellings() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let rows = [
            (
                "SELECT COUNT(*) FROM title t, movie_keyword mk, movie_info mi \
                 WHERE mk.movie_id = t.id AND mi.movie_id = t.id AND t.production_year > 2005 \
                 AND mk.keyword_id = 117 AND t.production_year < 2010 AND mi.info_type_id = 3",
                "SELECT COUNT(*) FROM movie_info x, title y, movie_keyword z \
                 WHERE y.production_year < 2010 AND x.info_type_id = 3 AND y.id = x.movie_id \
                 AND z.keyword_id = 117 AND y.id = z.movie_id AND y.production_year > 2005",
                "SELECT COUNT(*) FROM title t, movie_keyword mk, movie_info mi \
                 WHERE mk.movie_id = t.id AND mi.movie_id = t.id AND t.production_year > 1990 \
                 AND mk.keyword_id = 4 AND t.production_year < 2020 AND mi.info_type_id = 1",
                "movie_info,movie_keyword,title|movie_info.movie_id=title.id+\
                 movie_keyword.movie_id=title.id|movie_info.info_type_id=?+\
                 movie_keyword.keyword_id=?+title.production_year<?+title.production_year>?",
                "#0.2:1=2010#0.2:2=2005#3.2:0=3#5.2:0=117",
            ),
            (
                "SELECT COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id \
                 AND t.kind_id IN (7, 4) AND mc.company_type_id = 2 \
                 AND t.kind_id IN (3, 1, 2) AND t.kind_id = 1",
                "SELECT COUNT(*) FROM movie_companies a, title b WHERE b.kind_id = 1 \
                 AND b.kind_id IN (1, 2, 3) AND b.id = a.movie_id AND b.kind_id IN (4, 7) \
                 AND a.company_type_id = 2",
                "SELECT COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id \
                 AND t.kind_id IN (1, 2) AND mc.company_type_id = 1 \
                 AND t.kind_id IN (3, 4, 5, 6) AND t.kind_id = 2",
                "movie_companies,title|movie_companies.movie_id=title.id|\
                 movie_companies.company_type_id=?+title.kind_id.IN.?+title.kind_id.IN.?+\
                 title.kind_id=?",
                "#0.1:0=1#0.1:3=1,2,3#0.1:3=4,7#1.3:0=2",
            ),
            (
                "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id \
                 AND t.production_year LIKE '19%' AND ci.role_id = 1 \
                 AND t.production_year LIKE '2_0%'",
                "SELECT COUNT(*) FROM cast_info c, title t WHERE t.production_year LIKE '2_0%' \
                 AND c.role_id = 1 AND t.production_year LIKE '19%' AND t.id = c.movie_id",
                "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id = t.id \
                 AND t.production_year LIKE '199%' AND ci.role_id = 2 \
                 AND t.production_year LIKE '%5'",
                "cast_info,title|cast_info.movie_id=title.id|cast_info.role_id=?+\
                 title.production_year.LIKE.?+title.production_year.LIKE.?",
                "#0.2:4=49,57,37#0.2:4=50,95,48,37#2.3:0=1",
            ),
        ];
        for (sql, shuffled, relit, label, lits) in rows {
            let parse = |s: &str| parse_query(&db, s).expect("parse").canonical();
            let (c, c_shuffled, c_relit) = (parse(sql), parse(shuffled), parse(relit));
            assert_eq!(
                c, c_shuffled,
                "clause order and aliasing must not matter: {sql}"
            );
            assert_eq!(c.template(), c_relit.template(), "literals only: {sql}");
            assert_ne!(c.literals(), c_relit.literals(), "{sql}");
            assert_eq!(c.template_label(&db), label);
            assert_eq!(c_relit.template_label(&db), label);
            assert_eq!(c.concrete_label(label), format!("{label}{lits}"));
        }
    }
}
