// Regression tests for the fairlaw_check signature index
// (tools/analysis/index.h): the cross-file map of Status/Result<T>
// declarations that the error-flow rules match call sites against. The
// cases pin the declaration shapes that are easy to lose in a lexical
// parser — trailing return types, function-try-blocks, reference
// accessors vs by-value factories, and template-heavy class heads.
#include "tools/analysis/index.h"

#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "tools/analysis/lexer.h"

namespace fairlaw::analysis {
namespace {

SignatureIndex IndexOf(std::string_view header_source) {
  SignatureIndex index;
  const LexResult lexed = Lex(header_source);
  index.AddHeader("test.h", lexed.tokens);
  return index;
}

const FallibleFn* Find(const SignatureIndex& index,
                       const std::string& qualified) {
  for (const FallibleFn& fn : index.functions()) {
    if (fn.qualified == qualified) return &fn;
  }
  return nullptr;
}

TEST(SignatureIndexTest, PlainAndStaticDeclarations) {
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    class Table {
     public:
      FAIRLAW_NODISCARD Status Validate() const;
      static Status Open(const std::string& path);
      Result<int> RowCount() const;
    };
    }  // namespace fairlaw
  )");
  ASSERT_EQ(index.functions().size(), 3u);

  const FallibleFn* validate = Find(index, "fairlaw::Table::Validate");
  ASSERT_NE(validate, nullptr);
  EXPECT_EQ(validate->return_type, "Status");
  EXPECT_TRUE(validate->by_value);
  EXPECT_TRUE(validate->has_nodiscard);

  const FallibleFn* open = Find(index, "fairlaw::Table::Open");
  ASSERT_NE(open, nullptr);
  EXPECT_FALSE(open->has_nodiscard);
  EXPECT_TRUE(index.IsFallible("Open"));
  EXPECT_TRUE(index.IsFallible("RowCount"));
  EXPECT_FALSE(index.IsFallible("Close"));
}

TEST(SignatureIndexTest, TrailingReturnTypes) {
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    class Store {
     public:
      auto Reload() -> Status;
      auto LoadAll() const -> Result<std::vector<int>>;
    };
    auto OpenStore(const std::string& path) -> fairlaw::Result<Store>;
    }  // namespace fairlaw
  )");
  ASSERT_EQ(index.functions().size(), 3u);

  const FallibleFn* reload = Find(index, "fairlaw::Store::Reload");
  ASSERT_NE(reload, nullptr);
  EXPECT_EQ(reload->return_type, "Status");
  EXPECT_TRUE(reload->by_value);

  const FallibleFn* load_all = Find(index, "fairlaw::Store::LoadAll");
  ASSERT_NE(load_all, nullptr);
  EXPECT_EQ(load_all->return_type, "Result<std::vector<int>>");

  EXPECT_TRUE(index.IsFallible("OpenStore"));
}

TEST(SignatureIndexTest, FunctionTryBlockKeepsScopeInSync) {
  // A function-try-block puts `try` between the signature and the
  // brace; the parser must still index the declaration and must not
  // desynchronize the namespace stack for declarations that follow.
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    inline Status Commit(int v) try {
      return Status::OK();
    } catch (...) {
      return Status::Internal("commit failed");
    }
    Status AfterTry();
    }  // namespace fairlaw
  )");
  ASSERT_EQ(index.functions().size(), 2u);
  EXPECT_NE(Find(index, "fairlaw::Commit"), nullptr);
  EXPECT_NE(Find(index, "fairlaw::AfterTry"), nullptr);
}

TEST(SignatureIndexTest, ReferenceAccessorsAreNotFallibleCallees) {
  // `const Status& status()` is an accessor: indexed (the nodiscard
  // sweep covers it) but excluded from the fallible call-site name set,
  // so `result.status();` as a statement is not a discarded NEW error.
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    class Result_ish {
     public:
      const Status& status() const&;
      Status Take() &&;
    };
    }  // namespace fairlaw
  )");
  const FallibleFn* status = Find(index, "fairlaw::Result_ish::status");
  ASSERT_NE(status, nullptr);
  EXPECT_FALSE(status->by_value);
  EXPECT_FALSE(index.IsFallible("status"));
  EXPECT_TRUE(index.IsFallible("Take"));
}

TEST(SignatureIndexTest, TemplateClassHeadDoesNotFakeAScope) {
  // `template <class T>` must not push "T" (or anything) as a class
  // scope, and a templated class head must still qualify its members.
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    template <class T>
    class Box {
     public:
      Status Put(T value);
      Result<T> Get() const;
    };
    }  // namespace fairlaw
  )");
  ASSERT_EQ(index.functions().size(), 2u);
  EXPECT_NE(Find(index, "fairlaw::Box::Put"), nullptr);
  const FallibleFn* get = Find(index, "fairlaw::Box::Get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->return_type, "Result<T>");
}

TEST(SignatureIndexTest, FunctionBodyLocalsAreNotIndexed) {
  // `Status st(Status::OK());` inside an inline body is a local
  // variable, not an API declaration; the API-scope guard must skip it.
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    inline int Helper() {
      Status st = Status::OK();
      return st.ok() ? 0 : 1;
    }
    Status RealDecl();
    }  // namespace fairlaw
  )");
  ASSERT_EQ(index.functions().size(), 1u);
  EXPECT_NE(Find(index, "fairlaw::RealDecl"), nullptr);
}

TEST(SignatureIndexTest, StatusFactoryUsageIsNotADeclaration) {
  // `Status::Invalid("x")` in a default argument or inline body is a
  // call, not a declaration of `Invalid`.
  const SignatureIndex index = IndexOf(R"(
    namespace fairlaw {
    void Fail(Status s = Status::Invalid("bad"));
    Status Work();
    }  // namespace fairlaw
  )");
  ASSERT_EQ(index.functions().size(), 1u);
  EXPECT_NE(Find(index, "fairlaw::Work"), nullptr);
}

}  // namespace
}  // namespace fairlaw::analysis
