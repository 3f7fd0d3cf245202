//! The report schema: each report section lists its fields once, as a
//! `const` table of [`Field`]s, and one generic driver turns that list into
//! JSON out, JSON in, CSV columns and CLI table rows.
//!
//! An entry names the JSON key (the Rust field name, via [`field!`]), the
//! CSV column and precision if the field is a CSV column, and the table
//! label if the field is shown in a table. Adding a report field is adding
//! one entry to its section's list.
//!
//! Absent-when-off is one rule, [`Field::on`]: a field whose `when` gate
//! fails, or an `Option` section that is `None`, writes no JSON key (and
//! may be missing on the way back in); it gets CSV columns only when some
//! report of the series has it, with blank cells in the rows that have no
//! value; and it prints no table.

use crate::json::{JsonError, Value};
use crate::taxonomy::{CycleBreakdown, ALL_CATEGORIES};
use std::fmt::Write as _;

/// The two flat renderings a field can appear in.
#[derive(Clone, Copy)]
pub(crate) enum View {
    Csv,
    Table,
}

/// How a field shows in one view: its CSV column or table label (for a
/// nested section or list, the prefix of its children's names), a factor
/// numbers are scaled by, and the decimals a float prints with.
#[derive(Clone, Copy)]
pub(crate) struct Fmt {
    pub(crate) name: &'static str,
    scale: f64,
    prec: usize,
}

/// One named cell: a CSV column and its text, or a table label and value.
pub(crate) type Cell = (String, String);

/// Where a field's value comes from.
pub(crate) enum At<S: 'static> {
    /// A struct field: its JSON key and accessors.
    Stored(
        &'static str,
        fn(&S) -> &dyn Node,
        fn(&mut S) -> &mut dyn Node,
    ),
    /// A value computed from the section; it has no JSON key.
    Derived(fn(&S) -> f64),
    /// One column per Table 1 category, the fraction of cycles it took.
    PerCategory(fn(&S) -> &CycleBreakdown),
}

/// One entry of a section's field list.
pub(crate) struct Field<S: 'static> {
    pub(crate) at: At<S>,
    pub(crate) csv: Option<Fmt>,
    pub(crate) table: Option<Fmt>,
    when: Option<fn(&S) -> bool>,
}

/// One entry of a section's field list: a stored field (its JSON key is
/// its Rust name) or a `Derived`/`PerCategory` value, followed by the views
/// it shows in, e.g. `field!(opened csv("conn_opened", 0) table("opened", 0))`.
macro_rules! field {
    ($kind:ident($get:expr) $($view:ident $spec:tt)*) => {
        $crate::schema::Field::<Self>::new($crate::schema::At::$kind($get)) $(.$view $spec)*
    };
    ($name:ident $($view:ident $spec:tt)*) => {
        $crate::schema::Field::<Self>::new($crate::schema::At::Stored(
            stringify!($name),
            |s| &s.$name,
            |s| &mut s.$name,
        )) $(.$view $spec)*
    };
}
pub(crate) use field;

impl<S> Field<S> {
    /// An entry with no CSV column and no table row yet.
    pub(crate) const fn new(at: At<S>) -> Self {
        Field {
            at,
            csv: None,
            table: None,
            when: None,
        }
    }

    /// Show as CSV column `name`, floats with `prec` decimals.
    pub(crate) const fn csv(self, name: &'static str, prec: usize) -> Self {
        Field {
            csv: Some(Fmt {
                name,
                scale: 1.0,
                prec,
            }),
            ..self
        }
    }

    /// Show as table row (or title) `name`, floats with `prec` decimals.
    pub(crate) const fn table(self, name: &'static str, prec: usize) -> Self {
        self.table_scaled(name, 1.0, prec)
    }

    /// Show as table row `name`, scaled by `scale` (a unit change) and
    /// printed with `prec` decimals.
    pub(crate) const fn table_scaled(self, name: &'static str, scale: f64, prec: usize) -> Self {
        Field {
            table: Some(Fmt { name, scale, prec }),
            ..self
        }
    }

    /// Present only when `gate` holds for the section.
    pub(crate) const fn when(self, gate: fn(&S) -> bool) -> Self {
        Field {
            when: Some(gate),
            ..self
        }
    }

    /// The absent-when-off rule: whether this field is present in `s`.
    pub(crate) fn on(&self, s: &S) -> bool {
        self.when.is_none_or(|gate| gate(s))
            && match self.at {
                At::Stored(_, get, _) => get(s).present(),
                _ => true,
            }
    }

    /// Append this field's cells in `view`, names prefixed by `prefix`;
    /// `keys` name the rows a list field gets columns for.
    pub(crate) fn cells(
        &self,
        s: &S,
        view: View,
        prefix: &str,
        keys: &[&str],
        out: &mut Vec<Cell>,
    ) {
        let spec = match view {
            View::Csv => self.csv,
            View::Table => self.table,
        };
        let Some(fmt) = spec else { return };
        let name = format!("{prefix}{}", fmt.name);
        match self.at {
            At::Stored(_, get, _) => get(s).cells(view, &name, fmt, keys, out),
            At::Derived(get) => out.push((name, float(get(s), fmt))),
            At::PerCategory(get) => {
                for cat in ALL_CATEGORIES {
                    let column = format!("{name}{}", cat.label().replace('/', "_"));
                    out.push((column, float(get(s).fraction(cat), fmt)));
                }
            }
        }
    }
}

fn float(x: f64, fmt: Fmt) -> String {
    format!("{:.*}", fmt.prec, x * fmt.scale)
}

/// A report section: a struct whose fields are listed once in `FIELDS`.
pub(crate) trait Section: Default + 'static {
    const FIELDS: &'static [Field<Self>];

    /// The row key of a list element; a list's CSV columns are named
    /// `{key}_{column}`, one group per key found across the series.
    fn key(&self) -> &str {
        ""
    }
}

/// A value a field can hold: a number, string, pair, array, list, section
/// or optional section.
pub(crate) trait Node {
    fn to_value(&self) -> Value;

    fn read(&mut self, v: &Value) -> Result<(), JsonError>;

    /// `false` for an absent optional section.
    fn present(&self) -> bool {
        true
    }

    /// This value's row key as a list element (see [`Section::key`]).
    fn key(&self) -> &str {
        ""
    }

    /// The row keys of a list.
    fn keys(&self) -> Vec<&str> {
        Vec::new()
    }

    /// Append this value's cells under `name`, formatted by `fmt`: one
    /// cell for a scalar (only scalars, sections and lists have views).
    fn cells(&self, _: View, name: &str, fmt: Fmt, _: &[&str], out: &mut Vec<Cell>) {
        let text = match self.to_value() {
            Value::UInt(n) if fmt.scale == 1.0 => n.to_string(),
            Value::UInt(n) => float(n as f64, fmt),
            Value::Num(x) => float(x, fmt),
            Value::Str(text) => text,
            _ => String::new(),
        };
        out.push((name.to_string(), text));
    }

    /// This value as a table of its own (`None`: it is one or more rows of
    /// the enclosing table). `noun` heads a section's metric column.
    fn block(&self, _noun: &str) -> Option<String> {
        None
    }
}

/// A number or string: one JSON scalar, one cell.
macro_rules! leaf {
    ($($t:ty: $variant:ident, $as:ident;)*) => {$(
        impl Node for $t {
            fn to_value(&self) -> Value {
                Value::$variant(self.clone())
            }
            fn read(&mut self, v: &Value) -> Result<(), JsonError> {
                *self = v.$as()?.into();
                Ok(())
            }
        }
    )*};
}

leaf! {
    u64: UInt, as_u64;
    f64: Num, as_f64;
    String: Str, as_str;
}

/// A pair is a two-element JSON array.
impl<A: Node, B: Node> Node for (A, B) {
    fn to_value(&self) -> Value {
        Value::Arr(vec![self.0.to_value(), self.1.to_value()])
    }
    fn read(&mut self, v: &Value) -> Result<(), JsonError> {
        let [a, b] = v.as_arr()? else {
            return Err(JsonError {
                message: "pair is not length 2".into(),
            });
        };
        self.0.read(a)?;
        self.1.read(b)
    }
}

impl<T: Node, const N: usize> Node for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Node::to_value).collect())
    }
    fn read(&mut self, v: &Value) -> Result<(), JsonError> {
        let items = v.as_arr()?;
        if items.len() != N {
            return Err(JsonError {
                message: format!("array has {} entries, expected {N}", items.len()),
            });
        }
        self.iter_mut()
            .zip(items)
            .try_for_each(|(slot, x)| slot.read(x))
    }
}

/// The cells of `T::default()` with every value blanked: the columns a row
/// without this value still has to fill.
fn blank<T: Node + Default>(view: View, name: &str, fmt: Fmt, out: &mut Vec<Cell>) {
    let from = out.len();
    T::default().cells(view, name, fmt, &[], out);
    out[from..].iter_mut().for_each(|(_, text)| text.clear());
}

impl<T: Node + Default> Node for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Node::to_value).collect())
    }
    fn read(&mut self, v: &Value) -> Result<(), JsonError> {
        *self = v
            .as_arr()?
            .iter()
            .map(|x| {
                let mut item = T::default();
                item.read(x).map(|()| item)
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
    fn keys(&self) -> Vec<&str> {
        self.iter().map(Node::key).collect()
    }
    fn cells(&self, view: View, name: &str, fmt: Fmt, keys: &[&str], out: &mut Vec<Cell>) {
        for key in keys {
            let prefix = format!("{name}{key}_");
            match self.iter().find(|item| item.key() == *key) {
                Some(item) => item.cells(view, &prefix, fmt, &[], out),
                None => blank::<T>(view, &prefix, fmt, out),
            }
        }
    }
    /// A column table: a header of labels, then one line per element.
    fn block(&self, _: &str) -> Option<String> {
        let mut out = String::new();
        for (i, item) in self.iter().enumerate() {
            let mut row = Vec::new();
            item.cells(View::Table, "", PLAIN, &[], &mut row);
            if i == 0 {
                column_line(&mut out, row.iter().map(|(label, _)| label));
            }
            column_line(&mut out, row.iter().map(|(_, value)| value));
        }
        Some(out)
    }
}

const PLAIN: Fmt = Fmt {
    name: "",
    scale: 1.0,
    prec: 0,
};

fn column_line<'a>(out: &mut String, cells: impl Iterator<Item = &'a String>) {
    for (i, cell) in cells.enumerate() {
        let _ = if i == 0 {
            write!(out, "{cell:<12}")
        } else {
            write!(out, " {cell:>10}")
        };
    }
    out.push('\n');
}

impl<T: Section> Node for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Node::to_value)
    }
    fn read(&mut self, v: &Value) -> Result<(), JsonError> {
        self.insert(T::default()).read(v)
    }
    fn present(&self) -> bool {
        self.is_some()
    }
    fn cells(&self, view: View, name: &str, fmt: Fmt, keys: &[&str], out: &mut Vec<Cell>) {
        match self {
            Some(section) => section.cells(view, name, fmt, keys, out),
            None => blank::<T>(view, name, fmt, out),
        }
    }
    fn block(&self, noun: &str) -> Option<String> {
        self.as_ref().map(|section| metric_table(section, noun))
    }
}

/// A section as a two-column `metric value` table: one row per shown
/// scalar, then each shown list as a table of its own.
fn metric_table<S: Section>(s: &S, noun: &str) -> String {
    let mut rows = Vec::new();
    let mut lists = String::new();
    for f in S::FIELDS {
        f.cells(s, View::Table, "", &[], &mut rows);
        if let (At::Stored(key, get, _), Some(_)) = (&f.at, f.table) {
            lists.push_str(&get(s).block(key).unwrap_or_default());
        }
    }
    let mut out = format!("{:<24} {:>12}\n", format!("{noun} metric"), "value");
    for (label, value) in rows {
        let _ = writeln!(out, "{label:<24} {value:>12}");
    }
    out + &lists
}

impl<S: Section> Node for S {
    fn to_value(&self) -> Value {
        Value::Obj(
            S::FIELDS
                .iter()
                .filter(|f| f.on(self))
                .filter_map(|f| match f.at {
                    At::Stored(key, get, _) => Some((key.to_string(), get(self).to_value())),
                    _ => None,
                })
                .collect(),
        )
    }
    fn read(&mut self, v: &Value) -> Result<(), JsonError> {
        let off = S::default();
        for f in S::FIELDS {
            let At::Stored(key, _, get_mut) = f.at else {
                continue;
            };
            match v.get(key) {
                Ok(x) => get_mut(self).read(x)?,
                // A field that can be off may be missing; any other must not.
                Err(e) if f.on(&off) => return Err(e),
                Err(_) => {}
            }
        }
        Ok(())
    }
    fn key(&self) -> &str {
        Section::key(self)
    }
    fn cells(&self, view: View, name: &str, _: Fmt, keys: &[&str], out: &mut Vec<Cell>) {
        for f in S::FIELDS {
            f.cells(self, view, name, keys, out);
        }
    }
}
