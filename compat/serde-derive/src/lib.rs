//! Derive macros for the offline `serde` stand-in.
//!
//! Implemented directly on `proc_macro::TokenStream` — the environment has
//! no crates.io access, so `syn`/`quote` are unavailable. The parser only
//! understands the shapes this workspace actually uses: non-generic structs
//! (named, tuple, unit) and enums (unit, tuple, struct variants). Of the
//! `#[serde(...)]` attributes it honours container `default` and
//! `deny_unknown_fields` and field `default` / `default = "path"`, with
//! serde's meaning; any other serde attribute is a compile error. Struct
//! objects that repeat a field's key are rejected, as in `serde_json`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A named field and the expression a missing key decodes to (`None`:
/// the field is required, unless the container has `default`).
struct Field {
    name: String,
    missing: Option<String>,
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
        default: bool,
        deny_unknown_fields: bool,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Consumes `#[...]` attributes at the cursor and returns the entries of
/// any `#[serde(...)]` among them as `(form, path)`: the form is `key`, or
/// `key=` for `key = "path"`. A form outside `allowed` is an error.
fn parse_attrs(
    toks: &[TokenTree],
    mut i: usize,
    allowed: &[&str],
) -> Result<(usize, Vec<(String, String)>), String> {
    let mut attrs = Vec::new();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (toks.get(i), toks.get(i + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        i += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let [TokenTree::Ident(id), TokenTree::Group(args)] = inner.as_slice() else {
            continue;
        };
        if id.to_string() != "serde" {
            continue;
        }
        let args = args.stream().to_string();
        for entry in args.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (form, path) = match entry.split_once('=') {
                Some((key, lit)) => (format!("{}=", key.trim()), lit.trim().trim_matches('"')),
                None => (entry.to_owned(), ""),
            };
            if !allowed.contains(&form.as_str()) {
                return Err(format!("unsupported serde attribute `{entry}` here"));
            }
            attrs.push((form, path.to_owned()));
        }
    }
    Ok((i, attrs))
}

/// Skips `pub` / `pub(...)` visibility at the cursor.
fn skip_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = toks.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Advances past one field's type (or a variant's discriminant): everything
/// up to the next comma at angle-bracket depth zero.
fn skip_to_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if let TokenTree::Punct(p) = &toks[i] {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

fn parse_named_fields(group: &[TokenTree]) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < group.len() {
        let (next, attrs) = parse_attrs(group, i, &["default", "default="])?;
        i = skip_vis(group, next);
        if i >= group.len() {
            break;
        }
        let TokenTree::Ident(name) = &group[i] else {
            return Err(format!("expected field name, got `{}`", group[i]));
        };
        fields.push(Field {
            name: name.to_string(),
            missing: attrs.last().map(|(form, path)| match form.as_str() {
                "default=" => format!("{path}()"),
                _ => "::std::default::Default::default()".to_owned(),
            }),
        });
        i += 1;
        match group.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{}`", name)),
        }
        i = skip_to_comma(group, i);
        i += 1; // past the comma (or end)
    }
    Ok(fields)
}

fn parse_tuple_fields(group: &[TokenTree]) -> Result<usize, String> {
    let mut arity = 0;
    let mut i = 0;
    while i < group.len() {
        i = skip_vis(group, parse_attrs(group, i, &[])?.0);
        if i >= group.len() {
            break;
        }
        arity += 1;
        i = skip_to_comma(group, i) + 1;
    }
    Ok(arity)
}

fn parse_variants(group: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < group.len() {
        i = parse_attrs(group, i, &[])?.0;
        if i >= group.len() {
            break;
        }
        let TokenTree::Ident(name) = &group[i] else {
            return Err(format!("expected variant name, got `{}`", group[i]));
        };
        let name = name.to_string();
        i += 1;
        let fields = match group.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Tuple(parse_tuple_fields(&inner)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Named(parse_named_fields(&inner)?)
            }
            _ => Fields::Unit,
        };
        variants.push(Variant { name, fields });
        i = skip_to_comma(group, i) + 1; // past discriminant (if any) + comma
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let (i, attrs) = parse_attrs(&toks, 0, &["default", "deny_unknown_fields"])?;
    let has = |form: &str| attrs.iter().any(|(f, _)| f == form);
    let mut i = skip_vis(&toks, i);
    let kind = match &toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match &toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type `{name}` is not supported by the serde stub derive"
            ));
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Named(parse_named_fields(&inner)?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Tuple(parse_tuple_fields(&inner)?)
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unexpected struct body: {other:?}")),
            };
            if !attrs.is_empty() && !matches!(fields, Fields::Named(_)) {
                return Err(format!("`{name}`: serde attributes need named fields"));
            }
            Ok(Item::Struct {
                name,
                fields,
                default: has("default"),
                deny_unknown_fields: has("deny_unknown_fields"),
            })
        }
        "enum" if !attrs.is_empty() => Err(format!("`{name}`: serde attributes need a struct")),
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Ok(Item::Enum {
                    name,
                    variants: parse_variants(&inner)?,
                })
            }
            other => Err(format!("unexpected enum body: {other:?}")),
        },
        other => Err(format!("expected `struct` or `enum`, got `{other}`")),
    }
}

fn letters(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("__f{k}")).collect()
}

fn gen_serialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct { name, fields, .. } => {
            s.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n  fn to_json_value(&self) -> ::serde::Value {{\n"
            ));
            match fields {
                Fields::Named(fields) => {
                    s.push_str("    ::serde::Value::Object(vec![\n");
                    for Field { name: f, .. } in fields {
                        s.push_str(&format!(
                            "      (\"{f}\".to_owned(), ::serde::Serialize::to_json_value(&self.{f})),\n"
                        ));
                    }
                    s.push_str("    ])\n");
                }
                Fields::Tuple(1) => {
                    s.push_str("    ::serde::Serialize::to_json_value(&self.0)\n");
                }
                Fields::Tuple(n) => {
                    s.push_str("    ::serde::Value::Array(vec![\n");
                    for k in 0..*n {
                        s.push_str(&format!(
                            "      ::serde::Serialize::to_json_value(&self.{k}),\n"
                        ));
                    }
                    s.push_str("    ])\n");
                }
                Fields::Unit => s.push_str("    ::serde::Value::Null\n"),
            }
            s.push_str("  }\n}\n");
        }
        Item::Enum { name, variants } => {
            s.push_str(&format!(
                "impl ::serde::Serialize for {name} {{\n  fn to_json_value(&self) -> ::serde::Value {{\n    match self {{\n"
            ));
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => s.push_str(&format!(
                        "      {name}::{vn} => ::serde::Value::Str(\"{vn}\".to_owned()),\n"
                    )),
                    Fields::Tuple(1) => s.push_str(&format!(
                        "      {name}::{vn}(__f0) => ::serde::Value::Object(vec![(\"{vn}\".to_owned(), ::serde::Serialize::to_json_value(__f0))]),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binds = letters(*n);
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_json_value({b})"))
                            .collect();
                        s.push_str(&format!(
                            "      {name}::{vn}({}) => ::serde::Value::Object(vec![(\"{vn}\".to_owned(), ::serde::Value::Array(vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let entries: Vec<String> = names
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{f}\".to_owned(), ::serde::Serialize::to_json_value({f}))"
                                )
                            })
                            .collect();
                        s.push_str(&format!(
                            "      {name}::{vn} {{ {} }} => ::serde::Value::Object(vec![(\"{vn}\".to_owned(), ::serde::Value::Object(vec![{}]))]),\n",
                            names.join(", "),
                            entries.join(", ")
                        ));
                    }
                }
            }
            s.push_str("    }\n  }\n}\n");
        }
    }
    s
}

/// The `field: value,` initializers decoding `fields` out of the object
/// entries bound to `entries`.
fn gen_named_fields(fields: &[Field], entries: &str, container_default: bool) -> String {
    let mut body = String::new();
    for Field { name, missing } in fields {
        let missing = match missing {
            Some(expr) => expr.clone(),
            None if container_default => format!("__default.{name}"),
            None => format!("return Err(::serde::DeError(\"missing field `{name}`\".to_owned()))"),
        };
        body.push_str(&format!(
            "      {name}: match ::serde::__field({entries}, \"{name}\")? {{ Some(__v) => ::serde::Deserialize::from_json_value(__v)?, None => {missing} }},\n"
        ));
    }
    body
}

fn gen_deserialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct {
            name,
            fields,
            default,
            deny_unknown_fields,
        } => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{\n  fn from_json_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n"
            ));
            match fields {
                Fields::Named(fields) => {
                    let known: Vec<String> =
                        fields.iter().map(|f| format!("{:?}", f.name)).collect();
                    s.push_str(&format!(
                        "    let __entries = ::serde::__object(v, \"{name}\", &[{}], {deny_unknown_fields})?;\n",
                        known.join(", ")
                    ));
                    if *default {
                        s.push_str(
                            "    let __default: Self = ::std::default::Default::default();\n",
                        );
                    }
                    s.push_str(&format!(
                        "    Ok({name} {{\n{}    }})\n",
                        gen_named_fields(fields, "__entries", *default)
                    ));
                }
                Fields::Tuple(1) => {
                    s.push_str(&format!(
                        "    Ok({name}(::serde::Deserialize::from_json_value(v)?))\n"
                    ));
                }
                Fields::Tuple(n) => {
                    s.push_str(&format!(
                        "    let __items = v.expect_array(\"{name}\")?;\n    if __items.len() != {n} {{ return Err(::serde::DeError(format!(\"expected {n} elements for {name}, got {{}}\", __items.len()))); }}\n    Ok({name}(\n"
                    ));
                    for k in 0..*n {
                        s.push_str(&format!(
                            "      ::serde::Deserialize::from_json_value(&__items[{k}])?,\n"
                        ));
                    }
                    s.push_str("    ))\n");
                }
                Fields::Unit => {
                    s.push_str(&format!("    let _ = v;\n    Ok({name})\n"));
                }
            }
            s.push_str("  }\n}\n");
        }
        Item::Enum { name, variants } => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{\n  fn from_json_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n    match v {{\n"
            ));
            // Unit variants arrive as bare strings.
            s.push_str("      ::serde::Value::Str(__s) => match __s.as_str() {\n");
            for v in variants {
                if matches!(v.fields, Fields::Unit) {
                    let vn = &v.name;
                    s.push_str(&format!("        \"{vn}\" => Ok({name}::{vn}),\n"));
                }
            }
            s.push_str(&format!(
                "        __other => Err(::serde::DeError(format!(\"unknown variant `{{__other}}` for {name}\"))),\n      }},\n"
            ));
            // Data variants arrive as single-key objects.
            s.push_str("      ::serde::Value::Object(__entries) if __entries.len() == 1 => {\n");
            s.push_str("        let (__tag, __val) = &__entries[0];\n");
            s.push_str("        match __tag.as_str() {\n");
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {}
                    Fields::Tuple(1) => s.push_str(&format!(
                        "          \"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_json_value(__val)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let mut elems = String::new();
                        for k in 0..*n {
                            elems.push_str(&format!(
                                "::serde::Deserialize::from_json_value(&__items[{k}])?, "
                            ));
                        }
                        s.push_str(&format!(
                            "          \"{vn}\" => {{\n            let __items = __val.expect_array(\"{name}::{vn}\")?;\n            if __items.len() != {n} {{ return Err(::serde::DeError(format!(\"expected {n} elements for {name}::{vn}, got {{}}\", __items.len()))); }}\n            Ok({name}::{vn}({elems}))\n          }},\n"
                        ));
                    }
                    Fields::Named(fields) => {
                        s.push_str(&format!(
                            "          \"{vn}\" => {{\n            let __inner = __val.expect_object(\"{name}::{vn}\")?;\n            Ok({name}::{vn} {{\n{}            }})\n          }},\n",
                            gen_named_fields(fields, "__inner", false)
                        ));
                    }
                }
            }
            s.push_str(&format!(
                "          __other => Err(::serde::DeError(format!(\"unknown variant `{{__other}}` for {name}\"))),\n        }}\n      }},\n"
            ));
            s.push_str(&format!(
                "      __other => Err(::serde::DeError(format!(\"expected string or single-key object for {name}, got {{}}\", __other.kind()))),\n"
            ));
            s.push_str("    }\n  }\n}\n");
        }
    }
    s
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde stub derive codegen failed: {e}"))),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("compile_error literal")
}

/// Derives `serde::Serialize` (stub data model).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize` (stub data model).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
