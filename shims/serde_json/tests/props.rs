//! Property tests for the JSON shim: the parser returns (never panics)
//! on arbitrary and truncated input, serialization round-trips, and the
//! streaming writer prints exactly what the `Value` tree prints — and
//! what the `core::fmt`-based serializer it replaced printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proptest::prelude::*;
use serde_json::{from_str, push_u64, to_string, JsonWriter, Value};

/// splitmix64: a tiny seeded generator for building random documents.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A char biased towards the ones JSON treats specially: quotes,
    /// backslashes, control characters, and multi-byte UTF-8.
    fn char(&mut self) -> char {
        const SPECIAL: &[char] = &[
            '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é',
            '€', '😀', '{', '}', '[', ']', ':', ',',
        ];
        match self.below(4) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            1 => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + self.below(95) as u8),
        }
    }

    fn string(&mut self) -> String {
        let len = self.below(12);
        (0..len).map(|_| self.char()).collect()
    }

    /// A finite number that prints and parses back exactly.
    fn number(&mut self) -> f64 {
        match self.below(3) {
            0 => (self.next() >> 11) as f64 - (1u64 << 52) as f64,
            1 => f64::from(self.below(1000) as u32) / 8.0,
            _ => loop {
                let n = f64::from_bits(self.next());
                if n.is_finite() {
                    break n;
                }
            },
        }
    }

    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Number(self.number()),
            3 => Value::String(self.string()),
            4 => Value::Array((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(5))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Writes a random document through the writer's typed calls and
    /// returns the `Value` tree the same document builds.
    fn typed(&mut self, w: &mut JsonWriter, depth: u32) -> Value {
        let kinds = if depth == 0 { 8 } else { 10 };
        match self.below(kinds) {
            0 => {
                w.null();
                Value::Null
            }
            1 => {
                let b = self.below(2) == 1;
                w.bool(b);
                Value::Bool(b)
            }
            2 => {
                let v = self.next() as u32;
                w.u32(v);
                Value::from(v)
            }
            3 => {
                let v = self.next() >> 11;
                w.u64(v);
                Value::from(v)
            }
            4 => {
                let v = self.next() >> self.below(64);
                w.hex(v);
                Value::String(format!("{v:x}"))
            }
            5 => {
                let v =
                    (u128::from(self.next()) << 64 | u128::from(self.next())) >> self.below(128);
                w.hex128(v);
                Value::String(format!("{v:x}"))
            }
            6 => {
                let s = self.string();
                w.str(&s);
                Value::String(s)
            }
            7 => {
                let n = self.number();
                w.number(n);
                Value::Number(n)
            }
            8 => {
                w.begin_array();
                let items = (0..self.below(5))
                    .map(|_| self.typed(w, depth - 1))
                    .collect();
                w.end_array();
                Value::Array(items)
            }
            _ => {
                let keys: std::collections::BTreeSet<String> =
                    (0..self.below(5)).map(|_| self.string()).collect();
                let mut map = BTreeMap::new();
                w.begin_object();
                for k in keys {
                    w.key(&k);
                    map.insert(k, self.typed(w, depth - 1));
                }
                w.end_object();
                Value::Object(map)
            }
        }
    }
}

/// The `core::fmt` serializer the streaming writer replaced, kept as an
/// independent oracle for the bytes `Value` must keep printing.
fn reference(out: &mut String, v: &Value) {
    fn escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Number(n) if !n.is_finite() => out.push_str("null"),
        Value::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
            let _ = write!(out, "{}", *n as i64);
        }
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escaped(out, k);
                out.push(':');
                reference(out, item);
            }
            out.push('}');
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_returns_on_arbitrary_text(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let text: String = (0..g.below(64)).map(|_| g.char()).collect();
        let _ = from_str(&text);
        // Byte soup that is not even UTF-8 reaches the parser lossily.
        let bytes: Vec<u8> = (0..g.below(64)).map(|_| g.next() as u8).collect();
        let _ = from_str(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parser_returns_on_every_truncation_and_byte_flip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let text = to_string(&g.value(3)).expect("serialize");
        prop_assert!(from_str(&text).is_ok());
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let _ = from_str(&text[..cut]);
        }
        let mut bytes = text.into_bytes();
        if !bytes.is_empty() {
            let at = g.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << g.below(8);
        }
        let _ = from_str(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn values_round_trip_through_text(seed in any::<u64>()) {
        let v = Gen(seed).value(4);
        let text = to_string(&v).expect("serialize");
        let back = from_str(&text).expect("own output parses");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn writer_matches_the_tree_and_the_fmt_reference(seed in any::<u64>()) {
        let mut w = JsonWriter::new();
        let tree = Gen(seed).typed(&mut w, 4);
        let streamed = w.into_string();
        let mut oracle = String::new();
        reference(&mut oracle, &tree);
        prop_assert_eq!(&streamed, &to_string(&tree).expect("serialize"));
        prop_assert_eq!(&streamed, &tree.to_string());
        prop_assert_eq!(&streamed, &oracle);
    }

    #[test]
    fn push_u64_prints_what_to_string_prints(v in any::<u64>(), shift in 0u32..64) {
        // The shift spreads the draws over every digit count.
        for v in [v, v >> shift] {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            prop_assert_eq!(out, format!("x{v}"));
        }
    }
}
