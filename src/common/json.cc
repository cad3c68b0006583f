#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/log.hh"

namespace dbpsim {

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::array(const std::vector<double> &values)
{
    Json j = array();
    for (double v : values)
        j.push(v);
    return j;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    DBP_ASSERT(type_ == Type::Object, "Json::set on non-object");
    for (auto &m : members_) {
        if (m.first == key) {
            m.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *j = find(key);
    if (!j)
        fatal("json: missing member '", key, "'");
    return *j;
}

Json &
Json::push(Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    DBP_ASSERT(type_ == Type::Array, "Json::push on non-array");
    elements_.push_back(std::move(value));
    return *this;
}

const Json &
Json::at(std::size_t i) const
{
    DBP_ASSERT(type_ == Type::Array, "Json::at(index) on non-array");
    if (i >= elements_.size())
        fatal("json: index ", i, " out of range (size ",
              elements_.size(), ")");
    return elements_[i];
}

std::size_t
Json::size() const
{
    switch (type_) {
      case Type::Array:
        return elements_.size();
      case Type::Object:
        return members_.size();
      case Type::String:
        return str_.size();
      default:
        return 0;
    }
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        fatal("json: not a bool");
    return bool_;
}

double
Json::asDouble() const
{
    if (type_ != Type::Number)
        fatal("json: not a number");
    return num_;
}

std::int64_t
Json::asInt() const
{
    return static_cast<std::int64_t>(asDouble());
}

std::uint64_t
Json::asUInt() const
{
    double v = asDouble();
    if (v < 0)
        fatal("json: negative value where unsigned expected");
    return static_cast<std::uint64_t>(v);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        fatal("json: not a string");
    return str_;
}

namespace {

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          case '\r':
            os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/**
 * Shortest decimal form that parses back to the same double: try
 * increasing precision until the round-trip matches. Deterministic and
 * locale-independent (snprintf with "C" numeric formatting assumed, as
 * everywhere else in the simulator).
 */
void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null (campaign metrics are finite
        // by construction, so this only guards against future misuse).
        os << "null";
        return;
    }
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        os << static_cast<std::int64_t>(v);
        return;
    }
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    os << buf;
}

void
writeIndent(std::ostream &os, int indent, int depth)
{
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Json::writeImpl(std::ostream &os, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        os << "null";
        break;
      case Type::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Type::Number:
        writeNumber(os, num_);
        break;
      case Type::String:
        writeEscaped(os, str_);
        break;
      case Type::Array: {
        if (elements_.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < elements_.size(); ++i) {
            if (i)
                os << (indent ? "," : ", ");
            if (indent)
                writeIndent(os, indent, depth + 1);
            elements_[i].writeImpl(os, indent, depth + 1);
        }
        if (indent)
            writeIndent(os, indent, depth);
        os << ']';
        break;
      }
      case Type::Object: {
        if (members_.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        bool first = true;
        for (const auto &m : members_) {
            if (!first)
                os << (indent ? "," : ", ");
            first = false;
            if (indent)
                writeIndent(os, indent, depth + 1);
            writeEscaped(os, m.first);
            os << ": ";
            m.second.writeImpl(os, indent, depth + 1);
        }
        if (indent)
            writeIndent(os, indent, depth);
        os << '}';
        break;
      }
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeImpl(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

} // namespace dbpsim
