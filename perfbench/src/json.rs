//! A minimal JSON writer for the result lines (the benchmark has no
//! dependencies beyond the repository's crates).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders on one line. Numbers use Rust's shortest round-trip form,
    /// so every measured digit survives.
    pub fn render(&self) -> String {
        match self {
            Json::Num(x) if x.is_finite() => {
                let s = format!("{x:?}");
                s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
            }
            Json::Num(_) => "null".to_string(),
            Json::Int(n) => n.to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let body: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", body.join(", "))
            }
            Json::Obj(pairs) => {
                let body: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.render()))
                    .collect();
                format!("{{{}}}", body.join(", "))
            }
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Num(3.0)),
            ("c", Json::Str("x\"y\\z\n\u{1}".into())),
            (
                "d",
                Json::obj([("n", Json::Int(7)), ("t", Json::Bool(true))]),
            ),
            ("e", Json::Num(f64::NAN)),
            ("f", Json::Arr(vec![Json::Int(1), Json::Arr(vec![])])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": 1.25, "b": 3, "c": "x\"y\\z\n\u0001", "d": {"n": 7, "t": true}, "e": null, "f": [1, []]}"#
        );
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1e-7).render(), "1e-7");
    }
}
