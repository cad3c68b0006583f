/**
 * @file
 * A minimal JSON value: build and serialize.
 *
 * Written for the campaign result files (results/<campaign>.json):
 * object keys keep insertion order and doubles print with round-trip
 * precision, so the same in-memory results always serialize to
 * byte-identical text — the property the parallel-vs-serial
 * determinism gate and every result digest compare.
 */

#ifndef DBPSIM_COMMON_JSON_HH
#define DBPSIM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dbpsim {

/**
 * One JSON value (null / bool / number / string / array / object).
 */
class Json
{
    enum class Type { Null, Bool, Number, String, Array, Object };

  public:
    /** Null value. */
    Json() = default;

    Json(bool v) : type_(Type::Bool), bool_(v) {}
    Json(double v) : type_(Type::Number), num_(v) {}
    Json(int v) : type_(Type::Number), num_(v) {}
    Json(unsigned v) : type_(Type::Number), num_(v) {}
    Json(std::int64_t v)
        : type_(Type::Number), num_(static_cast<double>(v))
    {
    }
    Json(std::uint64_t v)
        : type_(Type::Number), num_(static_cast<double>(v))
    {
    }
    Json(const char *v) : type_(Type::String), str_(v) {}
    Json(std::string v) : type_(Type::String), str_(std::move(v)) {}

    /** Empty object / array factories. */
    static Json object();
    static Json array();

    /** An array of @p values, in order. */
    static Json array(const std::vector<double> &values);

    bool isNull() const { return type_ == Type::Null; }

    // ---- object interface -------------------------------------------
    /** Set (or overwrite) @p key; makes a null value an object. */
    Json &set(const std::string &key, Json value);

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Member access; fatal() when absent. */
    const Json &at(const std::string &key) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    // ---- array interface --------------------------------------------
    /** Append an element; makes a null value an array. */
    Json &push(Json value);

    /** Element access; fatal() when out of range. */
    const Json &at(std::size_t i) const;

    /** Array / object / string element count (0 for scalars). */
    std::size_t size() const;

    // ---- scalar accessors (fatal() on type mismatch) ----------------
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asUInt() const;
    const std::string &asString() const;

    // ---- serialization ----------------------------------------------
    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces per
     * level; 0 emits compact single-line text. Deterministic: member
     * order is insertion order, doubles use shortest round-trip form.
     */
    void write(std::ostream &os, int indent = 0) const;
    std::string dump(int indent = 0) const;

  private:
    void writeImpl(std::ostream &os, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> elements_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace dbpsim

#endif // DBPSIM_COMMON_JSON_HH
