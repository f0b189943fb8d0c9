package ctrlproto

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestEveryWireFieldRoundTrips fills every exported leaf of each message in
// wireCodecs with its own non-zero value, encodes it, decodes it and
// requires the same message back. A field added to a message but not to
// its codec fails here, named with its message. FuzzWireCodec cannot catch
// one: it decodes first, so a field the codec drops reads zero on both
// sides of its round trip.
func TestEveryWireFieldRoundTrips(t *testing.T) {
	for _, c := range wireCodecs {
		in := reflect.New(c.typ).Elem()
		next := 0
		if err := fill(in, &next); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		out, err := c.decode(c.encode(in.Interface()))
		if err != nil {
			t.Errorf("%s: decoding its own encoding: %v", c.name, err)
			continue
		}
		if reflect.DeepEqual(in.Interface(), out) {
			continue
		}
		if diff := firstDiff(in, reflect.ValueOf(out), c.typ.Name()); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		} else {
			t.Errorf("%s: the round trip changed the message:\n in=%+v\nout=%+v", c.name, in, out)
		}
	}
}

// fill gives every exported leaf reachable from v a distinct non-zero
// value (counting up from *next), every slice two elements and every
// pointer a target, so a field lost, swapped or truncated on the wire
// shows.
func fill(v reflect.Value, next *int) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.String:
		*next++
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := fill(v.Index(i), next); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if err := fill(v.Field(i), next); err != nil {
				return fmt.Errorf("%s.%s: %w", v.Type().Name(), v.Type().Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("no filler for a %s field", v.Type())
	}
	return nil
}

// firstDiff names the first exported leaf where sent and got differ, as a
// path from the message type ("AttachReply.UE.LocIP"), with both values;
// "" when every exported leaf agrees.
func firstDiff(sent, got reflect.Value, path string) string {
	switch sent.Kind() {
	case reflect.Pointer:
		if sent.IsNil() != got.IsNil() {
			return fmt.Sprintf("%s: sent nil=%v, got nil=%v", path, sent.IsNil(), got.IsNil())
		}
		if sent.IsNil() {
			return ""
		}
		return firstDiff(sent.Elem(), got.Elem(), path)
	case reflect.Slice, reflect.Array:
		if sent.Len() != got.Len() {
			return fmt.Sprintf("%s: sent %d elements, got %d", path, sent.Len(), got.Len())
		}
		for i := 0; i < sent.Len(); i++ {
			if d := firstDiff(sent.Index(i), got.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < sent.NumField(); i++ {
			f := sent.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if d := firstDiff(sent.Field(i), got.Field(i), path+"."+f.Name); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(sent.Interface(), got.Interface()) {
			return fmt.Sprintf("%s: sent %v, got %v", path, sent, got)
		}
	}
	return ""
}

// rawPayloads are the message types with no hand-packed payload: each
// carries at most a fixed-width number or opaque bytes, which the frame
// round trip (FuzzEncodeDecode) covers.
var rawPayloads = map[MsgType]string{
	MsgHello:   "the agent's 4-byte station ID, or nothing",
	MsgEcho:    "opaque bytes, echoed back",
	MsgResolve: "a 4-byte permanent address, answered with a 4-byte LocIP",
}

// TestEveryMsgTypeHasACodec reads the MsgType constants out of proto.go
// and requires each to have a wireCodecs entry or a rawPayloads line, so a
// new message cannot skip the round-trip property.
func TestEveryMsgTypeHasACodec(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		first := gd.Specs[0].(*ast.ValueSpec)
		if id, ok := first.Type.(*ast.Ident); !ok || id.Name != "MsgType" {
			continue
		}
		// The block counts up from 1 by iota; read the values by position.
		if len(first.Values) != 1 || iotaExpr(first.Values[0]) != "iota + 1" {
			t.Fatalf("the MsgType block no longer starts at iota + 1; read its values another way")
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs != first && (vs.Type != nil || len(vs.Values) != 0) {
				t.Fatalf("MsgType %s has an explicit value; read its values another way", vs.Names[0].Name)
			}
			for _, id := range vs.Names {
				names = append(names, id.Name)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no MsgType constants found in proto.go")
	}
	covered := make(map[MsgType]bool)
	for _, c := range wireCodecs {
		covered[c.msg] = true
	}
	for i, name := range names {
		if m := MsgType(i + 1); !covered[m] && rawPayloads[m] == "" {
			t.Errorf("%s has no wireCodecs entry and is not listed in rawPayloads", name)
		}
	}
}

// iotaExpr renders a constant expression of the form "iota + 1".
func iotaExpr(e ast.Expr) string {
	b, ok := e.(*ast.BinaryExpr)
	if !ok {
		return ""
	}
	x, ok1 := b.X.(*ast.Ident)
	y, ok2 := b.Y.(*ast.BasicLit)
	if !ok1 || !ok2 {
		return ""
	}
	return x.Name + " " + b.Op.String() + " " + y.Value
}
