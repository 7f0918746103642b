//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` with plain
//! `proc_macro` token inspection (no `syn`/`quote`, which are unavailable in
//! this build environment). Supported shapes cover everything in this
//! workspace:
//!
//! - structs with named fields (with `#[serde(default)]` and
//!   `#[serde(default = "path")]`)
//! - tuple and unit structs
//! - enums with unit, tuple, and struct variants, using serde's
//!   externally-tagged representation (`"Variant"` / `{"Variant": ...}`)
//!
//! Generics are not supported; no derived type in the workspace is generic.

#![forbid(unsafe_code)]
#![allow(clippy::unwrap_used)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Per-field metadata. `default` is `None` (required field),
/// `Some(None)` (`#[serde(default)]`), or `Some(Some(path))`
/// (`#[serde(default = "path")]`).
struct Field {
    name: String,
    default: Option<Option<String>>,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    shape: Shape,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed).parse().unwrap()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed).parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_input(input: TokenStream) -> Input {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Skip outer attributes (doc comments etc.) and visibility.
    let kind = loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                i += 1;
                // `pub(crate)` etc: skip the parenthesized restriction.
                if s == "pub" {
                    if let Some(TokenTree::Group(g)) = toks.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1;
                        }
                    }
                }
            }
            Some(_) => i += 1,
            None => panic!("serde derive: could not find `struct` or `enum` keyword"),
        }
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => panic!("serde derive: expected type name"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde derive shim: generic types are not supported");
        }
    }
    let shape = if kind == "struct" {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        }
    } else {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde derive: expected enum body"),
        }
    };
    Input { name, shape }
}

/// Skip a run of `#[...]` attributes starting at `i`, extracting any
/// `#[serde(default)]` / `#[serde(default = "path")]` into `default`.
fn skip_attrs(toks: &[TokenTree], mut i: usize, default: &mut Option<Option<String>>) -> usize {
    while let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
            parse_serde_attr(g.stream(), default);
        }
        i += 2;
    }
    i
}

/// `g` is the bracketed attribute body, e.g. `serde(default = "foo")` or
/// `doc = "..."`. Only `serde(default...)` is interpreted.
fn parse_serde_attr(stream: TokenStream, default: &mut Option<Option<String>>) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
            if id.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            let inner: Vec<TokenTree> = args.stream().into_iter().collect();
            if let Some(TokenTree::Ident(first)) = inner.first() {
                if first.to_string() == "default" {
                    if let (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) =
                        (inner.get(1), inner.get(2))
                    {
                        if eq.as_char() == '=' {
                            let raw = lit.to_string();
                            let path = raw.trim_matches('"').to_string();
                            *default = Some(Some(path));
                            return;
                        }
                    }
                    *default = Some(None);
                }
            }
        }
        _ => {}
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut default = None;
        i = skip_attrs(&toks, i, &mut default);
        if i >= toks.len() {
            break;
        }
        // Visibility.
        if let TokenTree::Ident(id) = &toks[i] {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde derive: expected field name, found {other}"),
        };
        i += 1; // name
        i += 1; // ':'
                // Skip the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in &toks {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut ignored = None;
        i = skip_attrs(&toks, i, &mut ignored);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde derive: expected variant name, found {other}"),
        };
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Named(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip discriminant (`= expr`) if present, then the trailing comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen: Serialize
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::Named(fields) => {
            let mut s = String::from(
                "let mut __obj: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
            );
            for f in fields {
                s.push_str(&format!(
                    "__obj.push((\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})));\n",
                    f = f.name
                ));
            }
            s.push_str("::serde::Value::Object(__obj)");
            s
        }
        Shape::Tuple(0) | Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(\"{vn}\".to_string()),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__f0) => ::serde::Value::Object(::std::vec![(\"{vn}\".to_string(), ::serde::Serialize::to_value(__f0))]),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => ::serde::Value::Object(::std::vec![(\"{vn}\".to_string(), ::serde::Value::Array(::std::vec![{items}]))]),\n",
                            binds = binds.join(", "),
                            items = items.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone()).collect();
                        let mut inner = String::from(
                            "let mut __inner: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
                        );
                        for f in fields {
                            inner.push_str(&format!(
                                "__inner.push((\"{f}\".to_string(), ::serde::Serialize::to_value({f})));\n",
                                f = f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{ {inner} ::serde::Value::Object(::std::vec![(\"{vn}\".to_string(), ::serde::Value::Object(__inner))]) }},\n",
                            binds = binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

// ---------------------------------------------------------------------------
// Codegen: Deserialize
// ---------------------------------------------------------------------------

fn named_fields_ctor(type_path: &str, fields: &[Field], obj_expr: &str, ctx: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        let fallback = match &f.default {
            None => format!(
                "return ::std::result::Result::Err(::serde::DeError::custom(\"missing field `{f}` in {ctx}\"))",
                f = f.name
            ),
            Some(None) => "::std::default::Default::default()".to_string(),
            Some(Some(path)) => format!("{path}()"),
        };
        inits.push_str(&format!(
            "{f}: match ::serde::find_field({obj_expr}, \"{f}\") {{\n\
                 ::std::option::Option::Some(__fv) => ::serde::Deserialize::from_value(__fv)?,\n\
                 ::std::option::Option::None => {fallback},\n\
             }},\n",
            f = f.name
        ));
    }
    format!("{type_path} {{\n{inits}}}")
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::Named(fields) => {
            let ctor = named_fields_ctor(name, fields, "__obj", name);
            format!(
                "let __obj = __v.as_object().ok_or_else(|| ::serde::DeError::custom(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({ctor})"
            )
        }
        Shape::Tuple(0) | Shape::Unit => {
            let ctor = if matches!(input.shape, Shape::Unit) {
                name.to_string()
            } else {
                format!("{name}()")
            };
            format!("let _ = __v;\n::std::result::Result::Ok({ctor})")
        }
        Shape::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__arr[{i}])?"))
                .collect();
            format!(
                "let __arr = __v.as_array().ok_or_else(|| ::serde::DeError::custom(\"expected array for {name}\"))?;\n\
                 if __arr.len() != {n} {{\n\
                     return ::std::result::Result::Err(::serde::DeError::custom(\"wrong tuple length for {name}\"));\n\
                 }}\n\
                 ::std::result::Result::Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n",
                        vn = v.name
                    )
                })
                .collect();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {}
                    VariantKind::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_value(__inner)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&__arr[{i}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                                 let __arr = __inner.as_array().ok_or_else(|| ::serde::DeError::custom(\"expected array for {name}::{vn}\"))?;\n\
                                 if __arr.len() != {n} {{\n\
                                     return ::std::result::Result::Err(::serde::DeError::custom(\"wrong tuple length for {name}::{vn}\"));\n\
                                 }}\n\
                                 ::std::result::Result::Ok({name}::{vn}({items}))\n\
                             }},\n",
                            items = items.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let ctor = named_fields_ctor(
                            &format!("{name}::{vn}"),
                            fields,
                            "__vobj",
                            &format!("{name}::{vn}"),
                        );
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                                 let __vobj = __inner.as_object().ok_or_else(|| ::serde::DeError::custom(\"expected object for {name}::{vn}\"))?;\n\
                                 ::std::result::Result::Ok({ctor})\n\
                             }},\n"
                        ));
                    }
                }
            }
            let string_arm = if unit_arms.is_empty() {
                format!(
                    "::serde::Value::String(_) => ::std::result::Result::Err(::serde::DeError::custom(\"enum {name} has no unit variants\")),\n"
                )
            } else {
                format!(
                    "::serde::Value::String(__s) => match __s.as_str() {{\n\
                         {unit_arms}\
                         __other => ::std::result::Result::Err(::serde::DeError::custom(::std::format!(\"unknown variant `{{}}` for {name}\", __other))),\n\
                     }},\n"
                )
            };
            let object_arm = if data_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                         let (__k, __inner) = &__pairs[0];\n\
                         match __k.as_str() {{\n\
                             {data_arms}\
                             __other => ::std::result::Result::Err(::serde::DeError::custom(::std::format!(\"unknown variant `{{}}` for {name}\", __other))),\n\
                         }}\n\
                     }},\n"
                )
            };
            format!(
                "match __v {{\n\
                     {string_arm}\
                     {object_arm}\
                     _ => ::std::result::Result::Err(::serde::DeError::custom(\"expected externally-tagged value for enum {name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         }}"
    )
}
